"""Core circular-set arithmetic: construction, gaps, enumeration, symmetries."""

import ast
import functools
import gc
import inspect
import math
import random
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sepekr.compression
import sepekr.core
import sepekr.search

from sepekr import (
    CircSet,
    DisjointnessGraph,
    SetFamily,
    disjointness_rows,
    enumerate_separated,
    gap_vector,
    is_k_separated,
    separated_masks,
    star_size_formula,
)
from sepekr.core import (
    DEFAULT_MAX_VERTICES,
    ResourceLimitError,
    check_member_masks,
    count_separated,
    mask_elems,
    mirror_mask,
    rotate_mask,
    row_edges,
    seconds_left,
    separated_universe,
)

from helpers import CountingClock, brute_separated, circ_gaps, kept_by_name
from helpers import dihedral_images as oracle_images


# === construction and validation ===


def test_circset_normalises_and_validates():
    s = CircSet(7, (5, 1, 3))
    assert s.elems == (1, 3, 5)
    assert s.r == 3
    assert s.mask == 0b10101
    assert 3 in s and 2 not in s
    with pytest.raises(ValueError):
        CircSet(5, ())
    with pytest.raises(ValueError):
        CircSet(5, (1, 1, 3))
    with pytest.raises(ValueError):
        CircSet(5, (0, 3))
    with pytest.raises(ValueError):
        CircSet(5, (1, 6))


def test_family_validation():
    with pytest.raises(ValueError):
        SetFamily(6, 2, 1, (CircSet(6, (1, 2)),))  # not separated
    with pytest.raises(ValueError):
        SetFamily(6, 2, 1, (CircSet(5, (1, 3)),))  # wrong ambient
    with pytest.raises(ValueError):
        SetFamily(6, 2, 1, (CircSet(6, (1, 3, 5)),))  # wrong size
    fam = SetFamily(6, 2, 1, (CircSet(6, (2, 5)), CircSet(6, (1, 3)), CircSet(6, (2, 5))))
    assert [s.elems for s in fam] == [(1, 3), (2, 5)]  # sorted, deduplicated


def test_family_membership_needs_the_same_elements_and_ambient():
    fam = SetFamily(6, 2, 1, (CircSet(6, (1, 3)), CircSet(6, (2, 5))))
    assert CircSet(6, (3, 1)) in fam
    assert CircSet(6, (1, 4)) not in fam
    assert CircSet(7, (1, 3)) not in fam


def test_family_reports_its_first_faulty_member_in_member_order():
    cases = [
        ((CircSet(7, (4, 6)), CircSet(6, (3, 5)), CircSet(7, (2, 3))),
         "member {2,3} is not 1-separated in [7]"),
        ((CircSet(7, (4, 6)), CircSet(6, (1, 3)), CircSet(7, (2, 4, 6))),
         "member {1,3} has ambient 6, family has 7"),
        ((CircSet(7, (5, 7)), CircSet(7, (1, 3, 5))),
         "member {1,3,5} has 3 elements, family declares r=2"),
    ]
    for members, message in cases:
        with pytest.raises(ValueError) as info:
            SetFamily(7, 2, 1, members)
        assert str(info.value) == message
    # the mask check reports the lexicographically first faulty mask, not the first given
    with pytest.raises(ValueError, match=r"member \{1,2\} has 2 elements, family declares r=3"):
        check_member_masks([0b1010100, 0b1100, 0b11], 7, 3, 1)


@pytest.mark.parametrize(
    "n, r, k, masks, message",
    [
        (5, 1, 0, (1 << 7,), r"^elements \(8,\) outside 1\.\.5$"),
        (0, 1, 0, (), "^ground set size must be positive, got n=0$"),
        (5, 0, 0, (), "^member size must be positive, got r=0$"),
        (5, 1, -1, (), "^separation parameter must be non-negative, got k=-1$"),
    ],
)
def test_disjointness_graph_checks_its_masks_when_made(n, r, k, masks, message):
    with pytest.raises(ValueError, match=message):
        DisjointnessGraph(n, r, k, masks)


def test_family_json_round_trip():
    fam = enumerate_separated(7, 2, 1)
    data = fam.to_json_dict()
    assert data == {"n": 7, "r": 2, "k": 1, "sets": [list(e) for e in brute_separated(7, 2, 1)]}
    assert SetFamily(7, 2, 1, tuple(CircSet(7, e) for e in data["sets"])) == fam
    s = CircSet(9, (2, 5, 8))
    assert s.to_json_dict() == {"n": 9, "elems": [2, 5, 8]}
    assert CircSet(**s.to_json_dict()) == s


def test_family_line_format():
    fam = SetFamily(6, 2, 1, (CircSet(6, (1, 3)), CircSet(6, (1, 4))))
    assert fam.to_line() == "6 2 1 : {1,3} {1,4}"


# === gaps ===


def test_gap_vector_examples():
    assert gap_vector(CircSet(8, (1, 3, 6))) == (2, 3, 3)
    assert gap_vector(CircSet(5, (2,))) == (5,)
    assert gap_vector(CircSet(6, (1, 3))) == (2, 4)


def test_is_k_separated_examples():
    assert is_k_separated(CircSet(8, (1, 3, 6)), 1)
    assert not is_k_separated(CircSet(8, (1, 3, 6)), 2)
    assert is_k_separated(CircSet(8, (1, 4, 7)), 1)
    assert not is_k_separated(CircSet(8, (1, 4, 7)), 2)  # wrap gap is 2
    assert is_k_separated(CircSet(5, (1, 2)), 0)
    assert is_k_separated(CircSet(5, (3,)), 4)
    assert not is_k_separated(CircSet(5, (3,)), 5)
    with pytest.raises(ValueError):
        is_k_separated(CircSet(5, (1, 3)), -1)


def test_is_k_separated_equals_the_gap_definition_exhaustively():
    # every nonempty subset of [n] for n <= 10, every k from 0 to 12 (so k >= n too)
    for n in range(1, 11):
        for m in range(1, 1 << n):
            s = CircSet(n, tuple(a for a in range(1, n + 1) if m >> (a - 1) & 1))
            smallest_gap = min(gap_vector(s))
            for k in range(13):
                assert is_k_separated(s, k) == (smallest_gap > k), (s, k)


# === symmetries ===


def test_rotate_reflect_examples():
    # rotate_mask moves a to a + s and mirror_mask sends a to n + 1 - a, both read mod n
    assert rotate_mask(0b101, 4, 1) == 0b1010  # {1,3} -> {2,4}
    assert rotate_mask(0b101, 4, -1) == 0b1010
    assert rotate_mask(0b1001, 4, 1) == 0b0011  # {1,4} -> {1,2}: 4 wraps to 1
    assert mirror_mask(0b101, 5) == 0b10100  # {1,3} -> {3,5}
    assert mirror_mask(0b100010010, 12) == 0b10010001000  # {2,5,9} -> {4,8,11}


def test_rotate_reflect_match_the_oracle_exhaustively():
    # every nonempty subset of [n] for n <= 9, every shift from -n to 2n; the oracle's
    # image s + n of a set is its mirror followed by rotation s
    for n in range(1, 10):
        for m in range(1, 1 << n):
            elems = mask_elems(m)
            images = [next(iter(img)) for img in oracle_images([elems], n)]
            for s in range(-n, 2 * n + 1):
                assert mask_elems(rotate_mask(m, n, s)) == images[s % n], (elems, s)
            assert mask_elems(mirror_mask(m, n)) == images[n], elems


@st.composite
def universe_families(draw):
    """A family of k-separated r-sets, empty ones included, as its vertex mask on the universe graph."""
    k = draw(st.integers(0, 2))
    r = draw(st.integers(1, 3))
    n = draw(st.integers((k + 1) * r, 12))
    graph = DisjointnessGraph(n, r, k, tuple(separated_masks(n, r, k)))
    picks = draw(st.sets(st.integers(0, graph.num_vertices - 1), max_size=6))
    return graph, sum(1 << v for v in picks)


@settings(max_examples=150, deadline=None)
@given(universe_families(), st.booleans())
def test_dihedral_images_match_the_oracle(case, rotations_only):
    # the search's images of a family, in the order of its group, are the oracle's
    graph, mask = case
    n, size = graph.n, graph.n if rotations_only else 2 * graph.n
    members = [mask_elems(m) for m in graph.masks]
    chosen = [members[e - 1] for e in mask_elems(mask)]
    perms = sepekr.search._vertex_permutations(graph)[:size]
    got = [frozenset(members[e - 1] for e in mask_elems(image)) for image in sepekr.search._orbit(mask, perms)]
    assert got == oracle_images(chosen, n, rotations_only)


# === enumeration ===


def test_enumerate_trivial_examples():
    assert [s.elems for s in enumerate_separated(4, 2, 1)] == [(1, 3), (2, 4)]
    assert [s.elems for s in enumerate_separated(6, 2, 2)] == [(1, 4), (2, 5), (3, 6)]
    assert [s.elems for s in enumerate_separated(5, 2, 1)] == [
        (1, 3),
        (1, 4),
        (2, 4),
        (2, 5),
        (3, 5),
    ]
    assert len(enumerate_separated(5, 3, 1)) == 0  # n < (k+1)r
    assert len(enumerate_separated(3, 4, 0)) == 0  # r > n
    # gaps of 21 on a circle of 210: only the 21 rotations of {1, 22, ..., 190}, where
    # building linear sets and then dropping those with a short wrap gap walks C(30, 10)
    base = tuple(range(1, 191, 21))
    rotations = sorted(tuple(sorted((a + s - 1) % 210 + 1 for a in base)) for s in range(21))
    assert [s.elems for s in enumerate_separated(210, 10, 20)] == rotations


def test_enumerate_matches_brute_force():
    cases = [(n, r, k) for n in range(1, 12) for r in range(1, 5) for k in range(0, 4)]
    cases += [(n, r, k) for n in range(1, 17) for r in range(1, 5) for k in range(4, 7)]
    for n, r, k in cases:
        got = [s.elems for s in enumerate_separated(n, r, k)]
        assert got == brute_separated(n, r, k), (n, r, k)


def test_mask_enumerator_is_lexicographic_and_checked():
    for n, r, k in [(9, 3, 1), (12, 4, 1), (15, 3, 2), (7, 3, 0), (5, 3, 1), (1, 1, 0)]:
        masks = separated_masks(n, r, k)
        assert [mask_elems(m) for m in masks] == brute_separated(n, r, k), (n, r, k)
    for bad in [(0, 1, 0), (5, 0, 1), (5, 2, -1)]:
        with pytest.raises(ValueError):
            separated_masks(*bad)


def test_graph_checks_its_masks():
    graph = DisjointnessGraph(7, 2, 1, tuple(separated_masks(7, 2, 1)))
    assert graph == DisjointnessGraph(7, 2, 1, tuple(s.mask for s in enumerate_separated(7, 2, 1)))
    assert graph.vertices == enumerate_separated(7, 2, 1)
    with pytest.raises(ValueError, match="is not 1-separated"):
        DisjointnessGraph(7, 2, 1, (0b101, 0b11))
    with pytest.raises(ValueError, match="has 3 elements"):
        DisjointnessGraph(7, 2, 1, (0b10101,))


def test_enumerate_lex_order_and_k0():
    fam = enumerate_separated(9, 3, 1)
    assert sorted(s.elems for s in fam) == [s.elems for s in fam]
    assert len(enumerate_separated(7, 3, 0)) == math.comb(7, 3)


def test_boundary_count_is_k_plus_1():
    # at n = (k+1)r the universe is exactly k+1 pairwise disjoint sets
    for k in (1, 2, 3):
        for r in (2, 3):
            fam = enumerate_separated((k + 1) * r, r, k)
            assert len(fam) == k + 1
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    assert not fam.sets[i].mask & fam.sets[j].mask


def test_star_size_formula_examples():
    assert star_size_formula(7, 2, 1) == 4
    assert star_size_formula(10, 3, 1) == 15
    assert star_size_formula(4, 2, 1) == 1
    assert star_size_formula(9, 3, 2) == 1
    with pytest.raises(ValueError):
        star_size_formula(5, 3, 1)
    with pytest.raises(ValueError):
        star_size_formula(6, 0, 1)


def test_star_size_formula_matches_enumeration():
    for k in (0, 1, 2):
        for r in (1, 2, 3):
            for n in range((k + 1) * r, (k + 1) * r + 6):
                fam = enumerate_separated(n, r, k)
                through_1 = sum(1 for s in fam if 1 in s)
                assert star_size_formula(n, r, k) == through_1, (n, r, k)


# === property tests ===


@st.composite
def separated_instances(draw):
    k = draw(st.integers(0, 3))
    r = draw(st.integers(1, 4))
    n = draw(st.integers((k + 1) * r, (k + 1) * r + 7))
    universe = enumerate_separated(n, r, k).sets
    return draw(st.sampled_from(universe)), k


@settings(max_examples=150)
@given(separated_instances())
def test_gap_round_trip(case):
    s, k = case
    gaps = gap_vector(s)
    assert sum(gaps) == s.n
    assert is_k_separated(s, k) == (min(gaps) > k)
    assert gaps == tuple(circ_gaps(s.elems, s.n))


@settings(max_examples=150)
@given(separated_instances(), st.integers(-20, 20))
def test_rotation_properties(case, shift):
    s, k = case
    t = CircSet(s.n, mask_elems(rotate_mask(s.mask, s.n, shift)))
    assert is_k_separated(t, k)
    assert sorted(gap_vector(t)) == sorted(gap_vector(s))
    assert rotate_mask(t.mask, s.n, -shift) == s.mask
    assert rotate_mask(s.mask, s.n, shift + s.n) == t.mask


@settings(max_examples=150)
@given(separated_instances())
def test_reflect_properties(case):
    s, k = case
    t = CircSet(s.n, mask_elems(mirror_mask(s.mask, s.n)))
    assert is_k_separated(t, k)
    assert mirror_mask(t.mask, s.n) == s.mask
    assert sorted(gap_vector(t)) == sorted(gap_vector(s))


@settings(max_examples=300)
@given(st.data())
def test_mirror_mask_reverses_the_bits(data):
    # sizes past one byte and not whole bytes too; the oracle reverses the binary string
    size = data.draw(st.integers(1, 300))
    mask = data.draw(st.integers(0, (1 << size) - 1))
    assert mirror_mask(mask, size) == int(format(mask, f"0{size}b")[::-1], 2)
    assert mirror_mask(mirror_mask(mask, size), size) == mask
    for i in range(size):
        assert mirror_mask(mask, size) >> (size - 1 - i) & 1 == mask >> i & 1


@settings(max_examples=100)
@given(separated_instances())
def test_separation_monotone_in_k(case):
    s, k = case
    for smaller in range(k + 1):
        assert is_k_separated(s, smaller)


@settings(max_examples=120)
@given(st.integers(0, 3), st.integers(1, 4), st.data())
def test_count_separated_matches_brute_force(k, r, data):
    n = data.draw(st.integers(1, (k + 1) * r + 6))
    assert count_separated(n, r, k) == len(brute_separated(n, r, k))


@st.composite
def circset_lists(draw):
    """Random CircSets on one circle, separated or not, duplicates allowed."""
    n = draw(st.integers(1, 12))
    elems = st.sets(st.integers(1, n), min_size=1, max_size=n)
    return [CircSet(n, tuple(e)) for e in draw(st.lists(elems, max_size=30))]


@settings(max_examples=150)
@given(circset_lists())
def test_disjointness_adjacency_matches_definition(sets):
    expected = [
        sum(1 << j for j, t in enumerate(sets) if not set(s.elems) & set(t.elems))
        for s in sets
    ]
    assert list(disjointness_rows([s.mask for s in sets])) == expected


@st.composite
def mask_lists(draw):
    """Random member masks of mixed sizes on up to 90 bits, duplicates allowed."""
    width = draw(st.integers(1, 90))
    elems = st.sets(st.integers(0, width - 1), min_size=1, max_size=6)
    return [sum(1 << b for b in e) for e in draw(st.lists(elems, max_size=30))]


@settings(max_examples=200)
@given(mask_lists())
@example([])
@example([0b1011])
@example([1 << 70 | 1, 1 << 61, 1 << 70 | 0b1000, 0b110, 1 << 89])
def test_disjoint_pairs_walk_the_full_rows(masks):
    rows = [sum(1 << j for j, b in enumerate(masks) if not a & b) for a in masks]
    assert list(disjointness_rows(masks)) == rows
    pairs = [(u, v) for u, a in enumerate(masks) for v, b in enumerate(masks) if u < v and not a & b]
    assert list(row_edges(disjointness_rows(masks))) == pairs


@settings(max_examples=200)
@given(mask_lists())
@example([])
@example([0b1011])
@example([0b1, 0b10])
def test_the_reversed_member_order_gives_the_bit_reversed_rows(masks):
    # the search's labels: the rows of the reversed list are the rows, each bit-reversed,
    # listed last vertex first
    size = len(masks)
    mirrored = [mirror_mask(row, size) for row in disjointness_rows(masks)]
    assert list(disjointness_rows(masks[::-1])) == mirrored[::-1]


def test_row_edges_reads_no_row_past_the_first_pair():
    def rows():
        yield 0b10110  # row 0: vertices 1, 2 and 4
        raise AssertionError("read the second row")

    assert next(row_edges(rows())) == (0, 1)


@pytest.mark.parametrize("n, r, k", [(9, 3, 1), (14, 4, 1), (20, 4, 2)])
def test_subfamily_equals_the_checked_constructor(n, r, k):
    # on the universe's lexicographic order the checks are skipped; on the
    # reversed order the members must still come out sorted
    masks = separated_masks(n, r, k)
    rng = random.Random(n)
    for order in (masks, masks[::-1]):
        graph = DisjointnessGraph(n, r, k, tuple(order))
        picks = [0, (1 << len(order)) - 1]
        for _ in range(40):
            picks.append(sum(1 << v for v in rng.sample(range(len(order)), rng.randint(1, len(order)))))
        for pick in picks:
            family = graph.subfamily(pick)
            chosen = [CircSet(n, mask_elems(m)) for v, m in enumerate(order) if pick >> v & 1]
            expected = SetFamily(n, r, k, tuple(chosen))
            assert family == expected
            assert family.sets == expected.sets
            assert hash(family) == hash(expected)
            assert [s.elems for s in family.sets] == sorted(s.elems for s in chosen)
    twice = DisjointnessGraph(n, r, k, (masks[1], masks[1], masks[0]))
    assert twice.subfamily(0b111).sets == tuple(CircSet(n, mask_elems(m)) for m in masks[:2])


def test_disjointness_rows_read_the_deadline_before_the_incidence_and_per_row():
    masks = separated_masks(9, 3, 1)
    assert list(disjointness_rows(masks, time.monotonic() + 30)) == list(disjointness_rows(masks))
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before the rows$"):
        next(disjointness_rows(masks, time.monotonic() - 1))
    deadline = time.monotonic() + 0.2
    rows = disjointness_rows(masks, deadline)
    next(rows)
    time.sleep(0.3)
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before the row of vertex 2$"):
        next(rows)


def test_the_universe_enumeration_reads_the_deadline_per_first_element(monkeypatch):
    # at 5 ms a first element, enumerating (200, 2, 1) with a clock read only before
    # it starts would overshoot a 0.05 s limit by a second
    kept = separated_universe(7, 2, 1, 100)
    real = sepekr.core.combinations

    def slow(*args):
        time.sleep(0.005)
        return real(*args)

    monkeypatch.setattr(sepekr.core, "combinations", slow)
    started = time.monotonic()
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before the sets from element [0-9]+$"):
        separated_universe(200, 2, 1, DEFAULT_MAX_VERTICES, time.monotonic() + 0.05)
    assert time.monotonic() - started < 0.5
    # the stopped build cached nothing: the universe kept before it is still the one kept
    assert separated_universe(7, 2, 1, 100) is kept


def test_seconds_left_splits_one_deadline_between_stages():
    assert seconds_left(None, "the solve") is None
    assert 0 < seconds_left(time.monotonic() + 10, "the solve") <= 10
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before the solve$"):
        seconds_left(time.monotonic() - 1, "the solve")


def test_every_bounded_call_takes_one_absolute_deadline():
    """One time budget in the library: a time.monotonic() deadline, never a count of seconds."""
    import sepekr

    calls = {"row_edges": row_edges}
    for name in sepekr.__all__:
        obj = getattr(sepekr, name)
        if inspect.isclass(obj):
            for attr, method in inspect.getmembers(obj, inspect.isfunction):
                if not attr.startswith("_"):
                    calls[f"{name}.{attr}"] = method
        elif callable(obj):
            calls[name] = obj
    params = {name: inspect.signature(call).parameters for name, call in calls.items()}
    assert [name for name, p in params.items() if "time_limit" in p] == []
    bounded = [
        "solve_max_independent", "enumerate_max_independent", "max_intersecting",
        "max_intersecting_weighted", "extremal_classes", "independence_number",
        "chromatic_number", "verify_weighted_ekr", "row_edges", "DisjointnessGraph.edges",
        "DisjointnessGraph.edge_count",
        "DisjointnessGraph.to_json_dict", "export_dimacs", "random_maximal_intersecting",
        "verify_compression_suite", "build_kneser", "build_schrijver",
    ]
    assert [name for name in bounded if "deadline" not in params[name]] == []


def test_every_export_is_used_or_documented():
    """Each public name has a reader in the package beyond its re-export, or a stated reason to stay."""
    import sepekr

    documented = {
        "enumerate_separated": "the README quick start builds its family with it",
        "is_intersecting": "the documented query for one family, by the one pair walk",
        "expand": "the weighted bound's expansion, kept for a symmetric weighted search",
        "enumerate_max_independent": "the enumerate mode on an arbitrary adj; the census reads a universe's own rows",
        "solve_max_independent": "the optimise mode on an arbitrary adj; a universe's searches read its own rows",
    }
    read = set()
    for path in Path(sepekr.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert [name for name in sepekr.__all__ if name not in read and name not in documented] == []
    assert [name for name in documented if name in read or name not in sepekr.__all__] == []


# === value semantics ===


def test_values_are_equal_and_hash_alike_exactly_when_their_fields_are():
    a, b, c = CircSet(9, (1, 3)), CircSet(9, (3, 1)), CircSet(9, (1, 4))
    assert a == b and hash(a) == hash(b) and a != c
    assert a != CircSet(10, (1, 3)) and a != (9, (1, 3))
    members = [a, c, CircSet(9, (1, 5)), CircSet(9, (1, 6))]
    family = SetFamily(9, 2, 1, members)
    for order in (members[::-1], members[1:] + members[:1], members + [b]):
        other = SetFamily(9, 2, 1, order)
        assert other == family and hash(other) == hash(family)
        assert other.sets == tuple(members)
    assert SetFamily(9, 2, 0, members) != family
    assert SetFamily(9, 2, 1, members[:3]) != family
    assert len({family, SetFamily(9, 2, 1, members[::-1]), SetFamily(9, 2, 0, members)}) == 2
    masks = tuple(s.mask for s in members)
    graph = DisjointnessGraph(9, 2, 1, masks)
    assert graph == DisjointnessGraph(9, 2, 1, masks) != DisjointnessGraph(9, 2, 1, masks[::-1])
    assert hash(graph) == hash(DisjointnessGraph(9, 2, 1, masks))


def test_circsets_order_on_the_ambient_then_the_elements():
    sets = [CircSet(9, (2, 4)), CircSet(8, (3, 5)), CircSet(9, (1, 5)), CircSet(9, (1, 3))]
    assert sorted(sets) == [CircSet(8, (3, 5)), CircSet(9, (1, 3)), CircSet(9, (1, 5)), CircSet(9, (2, 4))]
    low, high = CircSet(9, (1, 3)), CircSet(9, (1, 4))
    assert low < high and low <= high and high > low and high >= low
    assert low <= CircSet(9, (3, 1)) >= low and not low < CircSet(9, (3, 1))
    with pytest.raises(TypeError):
        low < (9, (1, 4))
    family = SetFamily(9, 2, 1, [low])
    with pytest.raises(TypeError):
        family < SetFamily(9, 2, 1, [high])


def test_values_repr_as_their_class_and_fields():
    s = CircSet(5, (3, 1))
    assert repr(s) == "CircSet(n=5, elems=(1, 3))"
    assert repr(SetFamily(5, 2, 1, [s])) == "SetFamily(n=5, r=2, k=1, sets=(CircSet(n=5, elems=(1, 3)),))"
    assert repr(DisjointnessGraph(5, 2, 1, (5, 10))) == "DisjointnessGraph(n=5, r=2, k=1, masks=(5, 10))"
    assert str(s) == "{1,3}"


def test_values_refuse_assignment_and_deletion():
    s = CircSet(5, (1, 3))
    family = SetFamily(5, 2, 1, [s])
    graph = DisjointnessGraph(5, 2, 1, (5,))
    for value, name in [(s, "n"), (s, "elems"), (family, "sets"), (graph, "masks"), (s, "other")]:
        with pytest.raises(AttributeError, match=f"field '{name}'"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=f"field '{name}'"):
            delattr(value, name)
    assert (s.n, s.elems, family.sets, graph.masks) == (5, (1, 3), (s,), (5,))


def test_cached_properties_are_computed_once_per_instance():
    s = CircSet(90, (1, 80))  # a mask above the small-int cache, so a recomputation is a new object
    assert s.mask is s.mask == 1 << 79 | 1
    family = enumerate_separated(7, 2, 1)
    assert family.member_keys is family.member_keys
    graph = DisjointnessGraph(7, 2, 1, tuple(separated_masks(7, 2, 1)))
    assert graph.reversed_rows(None) is graph.reversed_rows(None)
    assert graph.vertices is graph.vertices == family
    # built already: the deadline is not read
    assert graph.reversed_rows(time.monotonic() - 1) is graph.reversed_rows(None)


def test_results_are_named_tuples():
    from sepekr import ClauseResult, CompressionReport, max_intersecting, verify_weighted_ekr

    result = max_intersecting(6, 2, 1)
    n, r, k, optimum, witness, classes, nodes = result
    assert (n, r, k, optimum, classes) == (6, 2, 1, 3, None) == result[:4] + (result.classes,)
    assert result == (6, 2, 1, 3, witness, None, nodes)
    assert result._fields == ("n", "r", "k", "optimum", "witness", "classes", "nodes_explored")
    report = verify_weighted_ekr(8, 2, 1)
    assert report.passed and report[3:6] == (35, 35, 35)
    clause = ClauseResult("size-identity", True, ())
    assert clause.detail == "" and clause == ("size-identity", True, (), "")
    assert clause.to_json_dict() == {
        "clause_id": "size-identity", "passed": True, "witnesses": [], "detail": "",
    }
    failed = ClauseResult("input-intersecting", False, (CircSet(5, (1, 3)),), detail="x")
    compression = CompressionReport(5, 2, 1, (clause, failed))
    assert not compression.passed and compression.clause("input-intersecting") is failed
    assert compression.to_json_dict() == {
        "n": 5, "r": 2, "k": 1, "passed": False,
        "clauses": [
            clause.to_json_dict(),
            {"clause_id": "input-intersecting", "passed": False,
             "witnesses": [{"n": 5, "elems": [1, 3]}], "detail": "x"},
        ],
    }
    with pytest.raises(AttributeError):
        clause.passed = False


# === what a universe keeps ===

# each artefact a universe keeps: the module holding its builder, the builder's name, and a
# read of the (n, r, k) universe that builds it when it is not kept
KEPT = {
    "rows": (
        sepekr.core, "_reversed_rows", lambda n, r, k: separated_universe(n, r, k, 100).reversed_rows(None)
    ),
    "edge_count": (
        sepekr.core, "_edge_count", lambda n, r, k: separated_universe(n, r, k, 100).num_edges
    ),
    "census": (
        sepekr.search, "_dihedral_census", lambda n, r, k: sepekr.search.extremal_classes(n, r, k)
    ),
    "verdicts": (
        sepekr.compression, "_build_verdicts", lambda n, r, k: sepekr.compression._universe_verdicts(n, r, k, None)
    ),
}


@pytest.mark.parametrize("name", KEPT)
def test_a_universe_builds_each_artefact_once_through_kept(monkeypatch, name):
    module, builder, read = KEPT[name]
    real = getattr(module, builder)
    builds = []

    @functools.wraps(real)
    def counted(graph, deadline):
        builds.append((graph.n, graph.r, graph.k))
        return real(graph, deadline)

    monkeypatch.setattr(module, builder, counted)
    sepekr.core._universe.cache_clear()
    # once per graph, whichever reads of the universe ask for it, and as many times
    first = read(9, 3, 1)
    for _, _, again in KEPT.values():
        again(9, 3, 1)
    assert read(9, 3, 1) == first
    assert builds == [(9, 3, 1)]
    graph = separated_universe(9, 3, 1, 100)
    value = kept_by_name(graph)[builder]
    # a build the deadline stops keeps nothing: on a graph of the same masks, with a clock
    # that counts its reads, one full build takes `reads` reads, and a build with a
    # deadline halfway through them is stopped and the next call builds again
    with monkeypatch.context() as clocked:
        clock = CountingClock()
        clocked.setattr(sepekr.core, "time", clock)
        assert DisjointnessGraph(9, 3, 1, graph.masks).kept(counted, 10**9) == value
        reads = clock.reads
        stopped = DisjointnessGraph(9, 3, 1, graph.masks)
        clock.reads = 0
        with pytest.raises(ResourceLimitError):
            stopped.kept(counted, reads // 2)
        assert builder not in kept_by_name(stopped)
        assert stopped.kept(counted, None) == value
        assert len(builds) == 4
        # kept: a call reads no clock, not even under a deadline that has passed
        clock.reads = 0
        assert stopped.kept(counted, 1) == value and clock.reads == 0
    # a new universe replaces the old one with everything it kept: the old graph is freed,
    # and the next universe of the old parameters builds its artefacts again
    old = weakref.ref(graph)
    del graph
    read(10, 3, 1)
    gc.collect()
    assert old() is None
    builds.clear()
    assert read(9, 3, 1) == first
    assert builds == [(9, 3, 1)]


def test_the_universe_keeps_the_verdicts_when_they_are_none(monkeypatch):
    # a universe that fails a check of the suite has None for verdicts, and keeps it: the
    # next family of it is checked on its own members without a second build
    builds = []
    real = sepekr.compression._build_verdicts

    @functools.wraps(real)
    def counted(graph, deadline):
        builds.append((graph.n, graph.r, graph.k))
        return real(graph, deadline)

    def failing(*args, **kwargs):
        raise ValueError("a failed component check")

    sepekr.core._universe.cache_clear()
    monkeypatch.setattr(sepekr.compression, "_build_verdicts", counted)
    with monkeypatch.context() as faulty:
        faulty.setattr(sepekr.compression, "_derive", failing)
        assert sepekr.compression._universe_verdicts(9, 3, 1, None) is None
    assert kept_by_name(separated_universe(9, 3, 1, 100)) == {"_build_verdicts": None}
    assert sepekr.compression._universe_verdicts(9, 3, 1, None) is None
    family = SetFamily(9, 3, 1, [CircSet(9, (1, 4, 7))])
    assert sepekr.compression.verify_compression_suite(family).passed
    assert builds == [(9, 3, 1)]


# === package exports ===


def test_the_lazy_namespace_behaves_as_an_eager_one(monkeypatch):
    import sepekr

    assert [name for name in sepekr.__all__ if name not in dir(sepekr)] == []
    with pytest.raises(AttributeError, match="^module 'sepekr' has no attribute 'nope'$"):
        sepekr.nope
    with pytest.raises(ImportError):
        exec("from sepekr import nope", {})
    assert [getattr(sepekr, name).__name__ for name in ("core", "search")] == ["sepekr.core", "sepekr.search"]
    # the first read keeps the value in the package, where a patch replaces it as usual
    monkeypatch.delitem(vars(sepekr), "max_intersecting", raising=False)
    assert "max_intersecting" not in vars(sepekr)
    assert sepekr.max_intersecting is sepekr.search.max_intersecting
    assert vars(sepekr)["max_intersecting"] is sepekr.search.max_intersecting
    monkeypatch.setattr("sepekr.max_intersecting", "patched")
    assert sepekr.max_intersecting == "patched"
    from sepekr import max_intersecting

    assert max_intersecting == "patched"
    # a first read binds what the home module holds then, as the eager `from .core import`
    # bound it when the package was imported: a patch active then stays after its undo
    monkeypatch.setitem(vars(sepekr), "gap_vector", None)  # restores the package's binding
    del vars(sepekr)["gap_vector"]
    with monkeypatch.context() as patch:
        patch.setattr("sepekr.core.gap_vector", "patched")
        assert sepekr.gap_vector == "patched"
    assert sepekr.core.gap_vector != "patched"
    assert sepekr.gap_vector == "patched"


def test_public_names_resolve_and_star_import_binds_exactly_them():
    import sepekr

    assert len(set(sepekr.__all__)) == len(sepekr.__all__)
    for name in sepekr.__all__:
        assert hasattr(sepekr, name), name
    namespace: dict = {}
    exec("from sepekr import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(sepekr.__all__)
