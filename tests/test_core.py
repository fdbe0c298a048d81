"""Core circular-set arithmetic: construction, gaps, enumeration, symmetries."""

import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepekr import (
    CircSet,
    DisjointnessGraph,
    SetFamily,
    disjointness_rows,
    enumerate_separated,
    from_gaps,
    gap_vector,
    is_k_separated,
    reflect,
    rotate,
    separated_masks,
    star_size_formula,
)
from sepekr.core import (
    ResourceLimitError,
    check_member_masks,
    count_separated,
    dihedral_images,
    mask_elems,
    row_edges,
    seconds_left,
)

from helpers import brute_separated, circ_gaps
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
    assert data["n"] == 7 and data["r"] == 2 and data["k"] == 1
    assert SetFamily.from_json_dict(data) == fam
    s = CircSet(9, (2, 5, 8))
    assert CircSet.from_json_dict(s.to_json_dict()) == s


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


def test_from_gaps_examples():
    assert from_gaps(1, (2, 3), 5) == CircSet(5, (1, 3))
    assert from_gaps(3, (3, 3, 3), 9) == CircSet(9, (3, 6, 9))
    with pytest.raises(ValueError):
        from_gaps(1, (2, 3), 6)  # gaps must sum to n
    with pytest.raises(ValueError):
        from_gaps(0, (2, 3), 5)
    with pytest.raises(ValueError):
        from_gaps(1, (0, 5), 5)


# === symmetries ===


def test_rotate_reflect_examples():
    assert rotate(CircSet(4, (1, 3)), 1) == CircSet(4, (2, 4))
    assert rotate(CircSet(4, (1, 3)), -1) == CircSet(4, (2, 4))
    assert reflect(CircSet(5, (1, 3))) == CircSet(5, (1, 4))
    assert reflect(CircSet(12, (2, 5, 9))) == CircSet(12, (5, 9, 12))


def test_rotate_reflect_match_the_oracle_exhaustively():
    # every nonempty subset of [n] for n <= 9, every shift from -n to 2n
    for n in range(1, 10):
        for m in range(1, 1 << n):
            a = CircSet(n, mask_elems(m))
            rotations = oracle_images([a.elems], n, rotations_only=True)
            for s in range(-n, 2 * n + 1):
                assert {rotate(a, s).elems} == rotations[s % n], (a, s)
            assert {reflect(a).elems} == oracle_images([a.elems], n)[1], a


@st.composite
def mask_families(draw):
    n = draw(st.integers(1, 12))
    return n, draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6))


@settings(max_examples=150)
@given(mask_families(), st.booleans())
@example((5, []), False)
@example((5, []), True)
def test_dihedral_images_match_the_oracle(case, rotations_only):
    # image g of the family, member by member, is the oracle's image g of each member
    n, masks = case
    per_member = [oracle_images([mask_elems(m)], n, rotations_only) for m in masks]
    size = n if rotations_only else 2 * n
    expected = {tuple(next(iter(images[g])) for images in per_member) for g in range(size)}
    got = [tuple(mask_elems(m) for m in image) for image in dihedral_images(masks, n, rotations_only)]
    assert len(got) == size
    assert set(got) == expected


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
    assert graph == DisjointnessGraph.from_family(enumerate_separated(7, 2, 1))
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
                    assert not fam.sets[i].intersects(fam.sets[j])


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
    assert from_gaps(s.elems[0], gaps, s.n) == s
    assert is_k_separated(s, k) == (min(gaps) > k)
    assert gaps == tuple(circ_gaps(s.elems, s.n))


@settings(max_examples=150)
@given(separated_instances(), st.integers(-20, 20))
def test_rotation_properties(case, shift):
    s, k = case
    t = rotate(s, shift)
    assert is_k_separated(t, k)
    assert sorted(gap_vector(t)) == sorted(gap_vector(s))
    assert rotate(t, -shift) == s
    assert rotate(s, shift + s.n) == t


@settings(max_examples=150)
@given(separated_instances())
def test_reflect_properties(case):
    s, k = case
    t = reflect(s)
    assert is_k_separated(t, k)
    assert reflect(t) == s
    assert sorted(gap_vector(t)) == sorted(gap_vector(s))


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


def test_seconds_left_splits_one_deadline_between_stages():
    assert seconds_left(None, "the solve") is None
    assert 0 < seconds_left(time.monotonic() + 10, "the solve") <= 10
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before the solve$"):
        seconds_left(time.monotonic() - 1, "the solve")


# === package exports ===


def test_public_names_resolve_and_star_import_binds_exactly_them():
    import sepekr

    assert len(set(sepekr.__all__)) == len(sepekr.__all__)
    for name in sepekr.__all__:
        assert hasattr(sepekr, name), name
    namespace: dict = {}
    exec("from sepekr import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(sepekr.__all__)
