"""Exact search: optimum sizes, weighted optima, and extremal class censuses."""

import io
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepekr import (
    DisjointnessGraph,
    ResourceLimitError,
    build_kneser,
    build_schrijver,
    chromatic_number,
    disjointness_rows,
    enumerate_max_independent,
    enumerate_separated,
    export_dimacs,
    extremal_classes,
    independence_number,
    is_intersecting,
    max_intersecting,
    max_intersecting_weighted,
    random_maximal_intersecting,
    separated_masks,
    solve_max_independent,
    star_family,
    star_size_formula,
)
import sepekr.core
import sepekr.search
import sepekr.weighted
from sepekr.cli import default_grid
from sepekr.core import count_separated, mask_elems, mirror_mask
from sepekr.search import _cover_bound

from helpers import (
    CountingClock,
    all_maximum_intersecting,
    antipodal_transversal_classes,
    branch_vertex,
    count_classes,
    cover_walk,
    dihedral_images,
    exceptional_members,
    first_fit_clique_bound,
    kept_by_name,
    least_image,
    max_weight_independent,
    max_intersecting_size,
    max_weight_intersecting,
    nx_max_intersecting,
    vertex_permutations,
)


@pytest.fixture(autouse=True)
def cold_universe():
    """Each test starts from an empty universe cache: no census kept by an earlier test answers it."""
    sepekr.core._universe.cache_clear()


# === frozen optima ===


def test_max_intersecting_frozen_values():
    assert max_intersecting(4, 2, 1).optimum == 1
    assert max_intersecting(5, 2, 1).optimum == 2
    assert max_intersecting(9, 3, 2).optimum == 1
    assert max_intersecting(7, 2, 1).optimum == 4
    assert max_intersecting(12, 4, 1).optimum == star_size_formula(12, 4, 1)


def test_max_witness_is_canonical_star_at_7_2_1():
    result = max_intersecting(7, 2, 1)
    assert result.witness == star_family(7, 2, 1, 1)
    assert result.classes is None
    assert result.nodes_explored > 0


def test_witness_is_valid_and_canonical():
    for n, r, k in [(7, 2, 1), (9, 3, 1), (10, 2, 2), (11, 3, 2)]:
        result = max_intersecting(n, r, k)
        assert len(result.witness) == result.optimum
        assert is_intersecting(result.witness)
        members = [s.elems for s in result.witness]
        assert tuple(members) == least_image(members, n)


def test_optimum_matches_both_oracles():
    # route one: exhaustive walk; route two: networkx clique search
    for k, r, n_hi in [(1, 2, 9), (1, 3, 9), (2, 2, 10), (2, 3, 11)]:
        for n in range((k + 1) * r, n_hi + 1):
            members = [s.elems for s in enumerate_separated(n, r, k)]
            got = max_intersecting(n, r, k).optimum
            assert got == max_intersecting_size(members), (n, r, k)
            assert got == nx_max_intersecting(members), (n, r, k)


def test_optimum_equals_star_size_on_sample_grid():
    for n, r, k in [(8, 2, 1), (10, 3, 1), (12, 4, 1), (9, 2, 2), (11, 3, 2), (10, 2, 3)]:
        assert max_intersecting(n, r, k).optimum == star_size_formula(n, r, k)


def test_search_rejects_small_n():
    with pytest.raises(ValueError):
        max_intersecting(5, 3, 1)


def test_vertex_budget():
    with pytest.raises(ResourceLimitError):
        max_intersecting(12, 3, 1, max_vertices=10)


def test_vertex_limit_is_checked_before_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated a universe over the vertex limit")

    monkeypatch.setattr("sepekr.core.separated_masks", refuse)
    with pytest.raises(ResourceLimitError):
        max_intersecting(60, 8, 1)
    with pytest.raises(ResourceLimitError):
        build_schrijver(60, 8, 1, max_vertices=100)
    with pytest.raises(ResourceLimitError):
        build_kneser(60, 8, max_vertices=100)


def test_time_budget():
    with pytest.raises(ResourceLimitError):
        max_intersecting(14, 4, 1, deadline=time.monotonic() + 0.0)


def test_time_budget_aborts_inside_the_search():
    started = time.monotonic()
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before node [0-9]+$"):
        max_intersecting(17, 5, 1, deadline=time.monotonic() + 0.2)
    assert time.monotonic() - started < 2


def test_time_budget_is_read_at_every_node(monkeypatch):
    # at 5 ms a node, a clock read only every 1024 nodes would overshoot by seconds
    real = sepekr.search._cover_bound

    def slow(*args):
        time.sleep(0.005)
        return real(*args)

    monkeypatch.setattr(sepekr.search, "_cover_bound", slow)
    adj = list(disjointness_rows([s.mask for s in enumerate_separated(12, 4, 1).sets]))
    started = time.monotonic()
    with pytest.raises(ResourceLimitError, match="before node"):
        solve_max_independent(adj, deadline=time.monotonic() + 0.05)
    assert time.monotonic() - started < 1


def test_time_budget_is_read_while_the_rows_are_flipped(monkeypatch):
    # the rows are built before the call, so the deadline passes while the call reverses
    # them (read once per row) or at node 1, with a clock that counts its reads
    adj = list(disjointness_rows(build_schrijver(9, 3, 1).masks))
    stages = [(1, "the reversed row of vertex 1"), (len(adj), f"the reversed row of vertex {len(adj)}")]
    for reads, stage in stages + [(len(adj) + 1, "node 1")]:
        with monkeypatch.context() as clocked:
            clocked.setattr(sepekr.core, "time", CountingClock())
            with pytest.raises(ResourceLimitError, match=f"^time limit exceeded before {stage}$"):
                solve_max_independent(adj, deadline=reads)


@pytest.mark.parametrize(
    "call",
    [
        max_intersecting,
        extremal_classes,
        lambda n, r, k, **limits: max_intersecting_weighted(n, r, k, lambda s: 1, **limits),
        lambda n, r, k, deadline: list(build_schrijver(n, r, k).edges(deadline)),
        lambda n, r, k, deadline: build_schrijver(n, r, k).to_json_dict(deadline),
        lambda n, r, k, deadline: export_dimacs(build_schrijver(n, r, k), io.StringIO(), deadline=deadline),
        lambda n, r, k, deadline: random_maximal_intersecting(n, r, k, random.Random(0), deadline=deadline),
        lambda n, r, k, deadline: chromatic_number(build_schrijver(n, r, k), deadline=deadline),
        lambda n, r, k, deadline: independence_number(build_schrijver(n, r, k), deadline=deadline),
    ],
    ids=[
        "max_intersecting", "extremal_classes", "max_intersecting_weighted",
        "edges", "to_json_dict", "export_dimacs", "random_maximal_intersecting",
        "chromatic_number", "independence_number",
    ],
)
def test_the_time_limit_covers_the_rows(monkeypatch, call):
    real = sepekr.core.disjointness_rows
    sepekr.core._universe.cache_clear()  # so that no earlier test's rows are read

    def slow(masks, deadline=None):
        rows = real(masks, deadline)
        yield next(rows)
        time.sleep(0.3)
        yield from rows

    monkeypatch.setattr(sepekr.core, "disjointness_rows", slow)
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before the row of vertex 2$"):
        call(9, 3, 1, deadline=time.monotonic() + 0.2)


UNIVERSE_SEARCHES = {
    "max_intersecting": max_intersecting,
    "extremal_classes": extremal_classes,
    "extremal_classes_rotations": lambda n, r, k: extremal_classes(n, r, k, rotations_only=True),
    "max_intersecting_weighted": lambda n, r, k: max_intersecting_weighted(n, r, k, lambda s: s.elems[0]),
}


@pytest.mark.parametrize("call", UNIVERSE_SEARCHES.values(), ids=UNIVERSE_SEARCHES.keys())
def test_a_universe_search_builds_only_the_search_rows_once(monkeypatch, call):
    # a cold search keeps the rows in its own labels and never the vertex-label rows;
    # a second search of the universe builds no rows at all
    graph = sepekr.core.separated_universe(12, 3, 1, 1000)
    first = call(12, 3, 1)
    assert "_rows" not in vars(graph)
    assert len(kept_by_name(graph)["_reversed_rows"]) == graph.num_vertices == 112

    def refuse(masks, deadline=None):
        raise AssertionError("built rows again")

    monkeypatch.setattr(sepekr.core, "disjointness_rows", refuse)
    for again in UNIVERSE_SEARCHES.values():
        again(12, 3, 1)
    assert call(12, 3, 1) == first
    assert "_rows" not in vars(graph)


@pytest.mark.parametrize("n, r, k", [(1, 1, 0), (3, 3, 0), (2, 1, 1)])
def test_universes_of_one_or_two_vertices(n, r, k):
    # one vertex (a one-byte mirror, a group of one-element permutations) and two
    # disjoint vertices
    members = [s.elems for s in enumerate_separated(n, r, k).sets]
    assert len(members) == (2 if n == 2 else 1)
    assert max_intersecting_size(members) == star_size_formula(n, r, k) == 1
    for result in (
        max_intersecting(n, r, k),
        extremal_classes(n, r, k),
        extremal_classes(n, r, k, rotations_only=True),
        max_intersecting_weighted(n, r, k, lambda s: 1),
    ):
        assert result.optimum == len(result.witness) == 1
        assert [s.elems for s in result.witness.sets] == [members[0]]
    assert extremal_classes(n, r, k).classes == (extremal_classes(n, r, k).witness,)
    graph = sepekr.core.separated_universe(n, r, k, 10)
    assert independence_number(graph) == 1
    perms = sepekr.search._vertex_permutations(graph)
    assert [list(perm) for perm in perms] == vertex_permutations(members, n)


def test_max_intersecting_time_limit_covers_the_symmetries(monkeypatch):
    real = sepekr.search._vertex_permutations

    def slow(*args, **kwargs):
        result = real(*args, **kwargs)
        time.sleep(0.3)
        return result

    monkeypatch.setattr(sepekr.search, "_vertex_permutations", slow)
    with pytest.raises(ResourceLimitError, match="before the solve"):
        max_intersecting(9, 3, 1, deadline=time.monotonic() + 0.2)


def test_the_time_limit_covers_building_the_symmetries():
    """The 400 symmetries of the 19700 vertices of (200, 2, 1) take far longer than the limit."""
    with pytest.raises(ResourceLimitError, match=r"^time limit exceeded before symmetry \d+ of 400$"):
        max_intersecting(200, 2, 1, deadline=time.monotonic() + 0.05)


def test_weighted_time_limit_covers_the_weights():
    calls = []

    def slow_weight(s):
        if not calls:
            time.sleep(0.3)
        calls.append(s)
        return 1

    with pytest.raises(ResourceLimitError, match="before the solve"):
        max_intersecting_weighted(9, 3, 1, slow_weight, deadline=time.monotonic() + 0.2)


def test_search_is_deterministic():
    a = max_intersecting(10, 3, 1)
    b = max_intersecting(10, 3, 1)
    assert a == b
    c = extremal_classes(8, 2, 1)
    d = extremal_classes(8, 2, 1)
    assert c == d


def test_result_json_shape():
    data = max_intersecting(6, 2, 1).to_json_dict()
    assert sorted(data) == ["classes", "k", "n", "nodes", "optimum", "r", "witness"]
    assert data["classes"] is None
    assert data["optimum"] == 3
    data = extremal_classes(6, 2, 1).to_json_dict()
    assert len(data["classes"]) == 2


# === weighted search ===


def test_uniform_weights_reduce_to_counting():
    plain = max_intersecting(9, 3, 1)
    weighted = max_intersecting_weighted(9, 3, 1, lambda s: 1)
    assert weighted.optimum == plain.optimum
    assert len(weighted.witness) == weighted.optimum
    assert is_intersecting(weighted.witness)


def test_zero_weights_give_empty_optimum():
    result = max_intersecting_weighted(8, 2, 1, lambda s: 0)
    assert result.optimum == 0
    assert len(result.witness) == 0


def test_weight_function_is_validated():
    with pytest.raises(ValueError):
        max_intersecting_weighted(8, 2, 1, lambda s: -1)
    with pytest.raises(ValueError):
        max_intersecting_weighted(8, 2, 1, lambda s: 1.5)


def test_weighted_optimum_matches_both_oracles():
    def wf(s):
        return s.elems[0] + len(s.elems)

    for n, r, k in [(8, 2, 1), (9, 2, 1), (9, 3, 1), (10, 2, 2)]:
        members = [s.elems for s in enumerate_separated(n, r, k)]
        weights = [m[0] + len(m) for m in members]
        got = max_intersecting_weighted(n, r, k, wf)
        assert got.optimum == max_weight_intersecting(members, weights), (n, r, k)
        assert got.optimum == nx_max_intersecting(members, weights), (n, r, k)
        assert sum(wf(s) for s in got.witness) == got.optimum


# === extremal classes ===


def test_classes_frozen_at_6_2_1():
    result = extremal_classes(6, 2, 1)
    assert result.optimum == 3
    assert len(result.classes) == 2
    assert result.classes[0].to_line() == "6 2 1 : {1,3} {1,4} {1,5}"
    assert result.classes[1].to_line() == "6 2 1 : {1,3} {1,5} {3,5}"
    assert result.witness == result.classes[0]
    assert least_image([s.elems for s in star_family(6, 2, 1, 1)], 6) == ((1, 3), (1, 4), (1, 5))
    assert least_image(exceptional_members(2, 1), 6) == ((1, 3), (1, 5), (3, 5))


def test_classes_frozen_counts():
    assert len(extremal_classes(7, 2, 1).classes) == 1
    assert len(extremal_classes(8, 3, 1).classes) == 2
    assert len(extremal_classes(10, 4, 1).classes) == 4
    assert len(extremal_classes(14, 3, 2, max_vertices=5000).classes) == 1


def test_class_representatives_are_canonical_and_distinct():
    for n, r, k in [(6, 2, 1), (8, 3, 1), (10, 4, 1)]:
        result = extremal_classes(n, r, k)
        reps = result.classes
        assert list(reps) == sorted(reps, key=lambda f: tuple(s.elems for s in f.sets))
        for i, rep in enumerate(reps):
            members = [s.elems for s in rep]
            assert tuple(members) == least_image(members, n)
            assert is_intersecting(rep)
            assert len(rep) == result.optimum
            orbit = dihedral_images(members, n)
            for other in reps[i + 1 :]:
                assert other.member_keys not in orbit


def test_class_count_matches_orbit_oracle():
    # (6,3,0) has chiral optima: 104 dihedral classes, 176 rotation classes
    for k, r, n_hi in [(1, 2, 9), (2, 2, 10), (1, 3, 9), (0, 3, 6)]:
        for n in range((k + 1) * r, n_hi + 1):
            members = [s.elems for s in enumerate_separated(n, r, k)]
            maxima = all_maximum_intersecting(members)
            for rotations_only in (False, True):
                expected = count_classes(maxima, n, rotations_only)
                got = extremal_classes(n, r, k, rotations_only=rotations_only)
                assert len(got.classes) == expected, (n, r, k, rotations_only)
                assert len(maxima) > 0 and len(maxima[0]) == got.optimum


def test_enumeration_finds_each_maximum_once():
    for n, r, k in [(6, 2, 1), (7, 2, 1), (9, 3, 1)]:
        universe = enumerate_separated(n, r, k)
        adj = list(disjointness_rows([s.mask for s in universe.sets]))
        optimum, _, _ = solve_max_independent(adj)
        masks, _ = enumerate_max_independent(adj, optimum)
        assert len(masks) == len(set(masks))
        found = {
            frozenset(
                universe.sets[i].elems
                for i in range(len(universe))
                if mask >> i & 1
            )
            for mask in masks
        }
        expected = set(all_maximum_intersecting([s.elems for s in universe]))
        assert found == expected


def test_rotation_classes_refine_dihedral_classes():
    for n, r, k in [(6, 2, 1), (8, 3, 1), (10, 4, 1)]:
        dihedral = extremal_classes(n, r, k).classes
        rotation = extremal_classes(n, r, k, rotations_only=True).classes
        assert len(rotation) >= len(dihedral)
        for rep in rotation:
            least = least_image(rep.member_keys, n)
            matches = [d for d in dihedral if least_image(d.member_keys, n) == least]
            assert len(matches) == 1


def test_exceptional_families_appear_in_census():
    for r in (2, 3, 4):
        classes = extremal_classes(2 * r + 2, r, 1).classes
        for i in range(1, r // 2 + 1):
            least = least_image(exceptional_members(r, i), 2 * r + 2)
            assert any(tuple(s.elems for s in rep) == least for rep in classes), (r, i)


@pytest.mark.parametrize(
    "r, dihedral, rotations",
    [(2, 2, 2), (3, 2, 2), (4, 4, 4), (5, 5, 6), (6, 9, 10), (7, 12, 16), (8, 23, 30), (9, 34, 52)],
)
def test_exceptional_class_counts_are_antipodal_transversal_orbits(r, dihedral, rotations):
    # a computed observation on the circles r = 2..9, not a theorem: no map from the
    # transversals to the maximum families is known
    assert antipodal_transversal_classes(r) == dihedral
    assert antipodal_transversal_classes(r, rotations_only=True) == rotations
    assert len(extremal_classes(2 * r + 2, r, 1).classes) == dihedral
    assert len(extremal_classes(2 * r + 2, r, 1, rotations_only=True).classes) == rotations


def test_classes_vertex_budget():
    with pytest.raises(ResourceLimitError):
        extremal_classes(10, 3, 1, max_vertices=5)


@pytest.mark.parametrize(
    "slow_stage, next_stage",
    [
        ("_vertex_permutations", "enumerating"),
        ("_search", "canonicalising"),
        ("_orbit", "canonicalising"),
    ],
)
def test_classes_time_limit_covers_the_whole_call(monkeypatch, slow_stage, next_stage):
    """One deadline: a stage that ends after it stops the call before the next stage runs.

    Only the first call is slow: `_orbit` is the first optimum's orbit walk,
    and the deadline is read before the next optimum's walk.
    """
    real = getattr(sepekr.search, slow_stage)
    calls = []

    def slow(*args, **kwargs):
        result = real(*args, **kwargs)
        if not calls:
            time.sleep(0.3)
        calls.append(args)
        return result

    monkeypatch.setattr(sepekr.search, slow_stage, slow)
    with pytest.raises(ResourceLimitError, match=next_stage):
        extremal_classes(8, 3, 1, deadline=time.monotonic() + 0.2)


@pytest.mark.parametrize("rotations_only", [False, True])
def test_each_class_is_canonicalised_once(monkeypatch, rotations_only):
    """One orbit walk per dihedral class: every optimum the chain meets again is already
    seen, and under rotations a walk gives the class's one or two rotation classes."""
    calls = []
    real = sepekr.search._orbit

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sepekr.search, "_orbit", counted)
    # (n, r, k), dihedral classes, rotation classes
    for (n, r, k), dihedral, rotation in [((10, 4, 1), 4, 4), ((12, 5, 1), 5, 6)]:
        calls.clear()
        result = extremal_classes(n, r, k, rotations_only=rotations_only)
        assert len({c.member_keys for c in result.classes}) == len(result.classes)
        assert len(result.classes) == (rotation if rotations_only else dihedral)
        assert len(calls) == dihedral


def _census(n, r, k, rotations_only):
    result = extremal_classes(n, r, k, rotations_only=rotations_only)
    return result, [c.to_line() for c in result.classes]


@pytest.mark.parametrize("first", [False, True], ids=["dihedral_first", "rotations_first"])
def test_the_census_is_enumerated_once_per_universe(monkeypatch, first):
    """Either group, in either order, reads the one dihedral enumeration kept on the universe."""
    cold = {}
    for rotations_only in (False, True):
        sepekr.core._universe.cache_clear()
        cold[rotations_only] = _census(12, 5, 1, rotations_only)
    calls = []
    real = sepekr.search._search

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    sepekr.core._universe.cache_clear()
    monkeypatch.setattr(sepekr.search, "_search", counted)
    warm = {group: _census(12, 5, 1, group) for group in (first, not first)}
    assert len(calls) == 1
    assert warm == cold
    assert len(cold[False][1]) == 5 and len(cold[True][1]) == 6
    assert cold[False][0].nodes_explored == cold[True][0].nodes_explored == 557


def test_a_timed_out_enumeration_keeps_nothing(monkeypatch):
    """The next call on the universe enumerates again and gets the cold census."""
    calls = []
    real = sepekr.search._search

    def expired_once(rows, weights, target, deadline, perms=None):
        calls.append(target)
        if len(calls) == 1:
            deadline = time.monotonic()
        return real(rows, weights, target, deadline, perms)

    expected = _census(12, 5, 1, True)
    sepekr.core._universe.cache_clear()
    monkeypatch.setattr(sepekr.search, "_search", expired_once)
    # the universe's rows are built and kept, so the search stops at its first node
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before node 1$"):
        extremal_classes(12, 5, 1)
    assert _census(12, 5, 1, True) == expected
    assert len(calls) == 2


@pytest.mark.parametrize("first", [False, True], ids=["dihedral_first", "rotations_first"])
def test_the_census_keeps_each_class_orbit(monkeypatch, first):
    """A second call on the universe, under either group, builds no symmetries and walks no orbit."""
    cold = {}
    for rotations_only in (False, True):
        sepekr.core._universe.cache_clear()
        cold[rotations_only] = extremal_classes(12, 5, 1, rotations_only=rotations_only).to_json_dict()
    sepekr.core._universe.cache_clear()
    assert extremal_classes(12, 5, 1, rotations_only=first).to_json_dict() == cold[first]

    def refuse(*args, **kwargs):
        raise AssertionError("the census was worked out again")

    monkeypatch.setattr(sepekr.search, "_vertex_permutations", refuse)
    monkeypatch.setattr(sepekr.search, "_orbit", refuse)
    for rotations_only in (not first, first):
        assert extremal_classes(12, 5, 1, rotations_only=rotations_only).to_json_dict() == cold[rotations_only]


def test_a_census_stopped_in_the_orbit_walks_keeps_nothing(monkeypatch):
    """The first orbit walk ends past the deadline; the next call walks every orbit again."""
    expected = extremal_classes(12, 5, 1).to_json_dict()
    sepekr.core._universe.cache_clear()
    real = sepekr.search._orbit
    calls = []

    def slow_once(*args):
        if not calls:
            time.sleep(0.3)
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sepekr.search, "_orbit", slow_once)
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before canonicalising the optima$"):
        extremal_classes(12, 5, 1, deadline=time.monotonic() + 0.2)
    calls.clear()
    assert extremal_classes(12, 5, 1).to_json_dict() == expected
    assert len(calls) == 5  # one walk per dihedral class


@st.composite
def masks_of_one_size(draw):
    width = draw(st.integers(1, 70))
    size = draw(st.integers(1, width))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [sum(1 << b for b in rng.sample(range(width), size)) for _ in range(draw(st.integers(1, 30)))]


@settings(max_examples=300)
@given(masks_of_one_size())
def test_least_is_the_lexicographically_least_mask(masks):
    assert sepekr.search._least(masks) == min(masks, key=mask_elems)
    assert sepekr.search._least(iter(masks)) == min(masks, key=mask_elems)


# === orbit chain and incumbent ===

# Every (n, r, k) with k <= 3, n <= 18 and at most 60 vertices: 161 instances.
SMALL_INSTANCES = [
    (n, r, k)
    for k in range(4)
    for r in range(1, 9)
    for n in range((k + 1) * r, 19)
    if count_separated(n, r, k) <= 60
]


def _orbit_closure(masks, perms):
    out = set()
    for mask in masks:
        for perm in perms:
            out.add(sum(1 << perm[v] for v in _members(mask)))
    return out


def _chain_problems(n, r, k, rotations_only):
    """How the orbit chain disagrees with the oracles on one instance, if it does."""
    universe = enumerate_separated(n, r, k)
    members = [s.elems for s in universe]
    adj = list(disjointness_rows([s.mask for s in universe.sets]))
    perms = vertex_permutations(members, n, rotations_only)
    maxima = all_maximum_intersecting(members)
    optimum = max_intersecting_size(members)
    problems = []
    got, mask, _ = solve_max_independent(adj, perms=perms)
    if got != optimum or mask.bit_count() != optimum:
        problems.append(f"solve found {got}, oracle {optimum}")
    try:
        result = extremal_classes(n, r, k, rotations_only=rotations_only)
    except RuntimeError:  # it found no optimum at all
        problems.append("extremal_classes found no class")
    else:
        if result.optimum != optimum:
            problems.append(f"extremal_classes found {result.optimum}, oracle {optimum}")
        if len(result.classes) != count_classes(maxima, n, rotations_only):
            problems.append(f"{len(result.classes)} classes")
    chain, _ = enumerate_max_independent(adj, optimum, perms=perms)
    full, _ = enumerate_max_independent(adj, optimum)
    oracle = {sum(1 << members.index(m) for m in fam) for fam in maxima}
    if len(chain) != len(set(chain)) or not _orbit_closure(chain, perms) == set(full) == oracle:
        problems.append("the orbits of the chain's optima are not all the optima")
    return problems


@pytest.mark.parametrize("rotations_only", [False, True])
def test_every_representative_and_witness_is_its_own_least_image(rotations_only):
    # by the oracle's group: each class representative, and the dihedral witness, is the
    # least image of its own members, and no two representatives share an orbit
    wrong = []
    for n, r, k in SMALL_INSTANCES:
        reps = [sorted(c.member_keys) for c in extremal_classes(n, r, k, rotations_only=rotations_only).classes]
        least = [least_image(rep, n, rotations_only) for rep in reps]
        if [tuple(rep) for rep in reps] != least or len(set(least)) != len(least):
            wrong.append((n, r, k))
        if not rotations_only:
            witness = sorted(max_intersecting(n, r, k).witness.member_keys)
            if tuple(witness) != least_image(witness, n):
                wrong.append((n, r, k, "witness"))
    assert wrong == []


@pytest.mark.parametrize("rotations_only", [False, True])
def test_orbit_chain_matches_the_oracles(rotations_only):
    assert len(SMALL_INSTANCES) == 161
    failures = {
        inst: found
        for inst in SMALL_INSTANCES
        if (found := _chain_problems(*inst, rotations_only))
    }
    assert failures == {}


def test_max_intersecting_on_the_chain_matches_the_oracle():
    for n, r, k in SMALL_INSTANCES:
        members = [s.elems for s in enumerate_separated(n, r, k)]
        assert max_intersecting(n, r, k).optimum == max_intersecting_size(members), (n, r, k)


def _drop_last_root(chain):
    return chain[:-1]


def _exclude_one_orbit_too_many(chain):
    """Each root also excludes the rest of its own orbit: what the next root excludes."""
    return [(v, after) for (v, _), (_, after) in zip(chain, chain[1:])] + chain[-1:]


@pytest.mark.parametrize("fault", [_drop_last_root, _exclude_one_orbit_too_many])
def test_a_broken_orbit_chain_is_caught(monkeypatch, fault):
    real = sepekr.search._orbit_chain
    monkeypatch.setattr(sepekr.search, "_orbit_chain", lambda size, perms: fault(real(size, perms)))
    assert any(_chain_problems(*inst, False) for inst in SMALL_INSTANCES)


def test_an_include_child_that_keeps_its_group_is_caught(monkeypatch):
    # without the stabiliser step, an exclude child below it drops an orbit of a group
    # that moves the included vertices, which loses optima and classes
    monkeypatch.setattr(sepekr.search, "_stabiliser", lambda group, v: group)
    caught = [inst for inst in SMALL_INSTANCES if _chain_problems(*inst, False)]
    assert (4, 2, 0) in caught and (11, 2, 0) in caught


def _answers(n, r, k, rotations_only):
    classes = extremal_classes(n, r, k, rotations_only=rotations_only).classes
    return max_intersecting(n, r, k).witness, [c.to_line() for c in classes]


def test_orbital_branching_below_the_root_keeps_every_answer(monkeypatch):
    instances = SMALL_INSTANCES + [(10, 4, 1), (12, 4, 1), (13, 3, 2)]
    expected = {
        (inst, rotations_only): _answers(*inst, rotations_only)
        for inst in instances
        for rotations_only in (False, True)
    }
    # the group None below the root: the chain's roots, then the plain search
    monkeypatch.setattr(sepekr.search, "_stabiliser", lambda group, v: None)
    sepekr.core._universe.cache_clear()  # so that the last universe's optima are enumerated again
    plain = {key: _answers(*key[0], key[1]) for key in expected}
    assert plain == expected
    assert extremal_classes(8, 3, 1).nodes_explored == 72  # the count before orbital branching


def test_the_solve_builds_circsets_for_the_witness_only(monkeypatch):
    built = []
    real = sepekr.core.CircSet.__init__

    def counted(self, n, elems):
        built.append(self)
        real(self, n, elems)

    sepekr.core._universe.cache_clear()
    monkeypatch.setattr(sepekr.core.CircSet, "__init__", counted)
    result = max_intersecting(14, 4, 1)
    assert len(built) == result.optimum == 84 < count_separated(14, 4, 1) == 294
    max_intersecting(14, 4, 1)
    assert len(built) == 84  # at most once per vertex of the cached universe


def test_an_enumeration_without_an_optimum_is_an_internal_fault(monkeypatch):
    real = sepekr.search._orbit_chain
    monkeypatch.setattr(
        sepekr.search, "_orbit_chain", lambda size, perms: _drop_last_root(real(size, perms))
    )
    with pytest.raises(RuntimeError, match="^enumeration returned no optimum"):
        extremal_classes(1, 1, 0)


def _expected_chain(members, n, rotations_only):
    """The orbit chain from the definition: the lowest vertex of each orbit, in index order,
    with the union of the earlier orbits as its exclusion mask."""
    perms = vertex_permutations(members, n, rotations_only)
    orbits = {frozenset(perm[v] for perm in perms) for v in range(len(members))}
    chain, excluded = [], 0
    for orbit in sorted(orbits, key=min):
        chain.append((min(orbit), excluded))
        excluded |= sum(1 << v for v in orbit)
    return chain


@pytest.mark.parametrize("rotations_only", [False, True])
def test_orbit_chain_is_exactly_the_chain_of_the_definition(rotations_only):
    wrong = []
    for n, r, k in SMALL_INSTANCES:
        graph = DisjointnessGraph(n, r, k, tuple(separated_masks(n, r, k)))
        members = [s.elems for s in graph.vertices]
        perms = sepekr.search._vertex_permutations(graph)[: n if rotations_only else None]
        if sepekr.search._orbit_chain(len(members), perms) != _expected_chain(
            members, n, rotations_only
        ):
            wrong.append((n, r, k))
    assert wrong == []


# The small instances, every row of the default grid, and the one-point circle.
GROUP_INSTANCES = list(
    dict.fromkeys(SMALL_INSTANCES + [(n, r, k) for n, r, k, _ in default_grid()] + [(1, 1, 0)])
)


def _group_problems(n, r, k, rotations_only):
    """How _vertex_permutations disagrees with the circle group on one instance, if it does."""
    graph = DisjointnessGraph(n, r, k, tuple(separated_masks(n, r, k)))
    perms = sepekr.search._vertex_permutations(graph)[: n if rotations_only else None]
    problems = []
    members = [s.elems for s in graph.vertices]
    if [list(perm) for perm in perms] != vertex_permutations(members, n, rotations_only):
        problems.append("not the oracle's group in its order")
    adj = list(disjointness_rows(graph.masks))
    for perm in perms:
        if any(sum(1 << perm[w] for w in _members(adj[v])) != adj[perm[v]] for v in range(len(adj))):
            problems.append(f"{perm} is not an automorphism")
    return problems


@pytest.mark.parametrize("rotations_only", [False, True])
def test_vertex_permutations_are_exactly_the_circle_group(rotations_only):
    assert len(GROUP_INSTANCES) == 176
    failures = {
        inst: found for inst in GROUP_INSTANCES if (found := _group_problems(*inst, rotations_only))
    }
    assert failures == {}


def test_a_wrong_step_generator_is_caught(monkeypatch):
    real = sepekr.search.rotate_mask
    monkeypatch.setattr(sepekr.search, "rotate_mask", lambda mask, n, s: real(mask, n, 2 * s))
    assert any(_group_problems(*inst, False) for inst in GROUP_INSTANCES)


def test_chain_with_the_trivial_group_loses_nothing():
    for n, r, k in [(7, 2, 1), (9, 3, 1), (10, 2, 2)]:
        adj = list(disjointness_rows([s.mask for s in enumerate_separated(n, r, k).sets]))
        identity = [list(range(len(adj)))]
        one_root_per_vertex = [(v, (1 << v) - 1) for v in range(len(adj))]
        assert sepekr.search._orbit_chain(len(adj), identity) == one_root_per_vertex
        optimum, _, _ = solve_max_independent(adj)
        assert solve_max_independent(adj, perms=identity)[0] == optimum
        chain, _ = enumerate_max_independent(adj, optimum, perms=identity)
        assert sorted(chain) == sorted(enumerate_max_independent(adj, optimum)[0])


def test_incumbent_must_be_independent(monkeypatch):
    universe = enumerate_separated(7, 2, 1)
    adj = list(disjointness_rows([s.mask for s in universe.sets]))
    u, v = next((u, v) for u in range(len(adj)) for v in range(len(adj)) if adj[u] >> v & 1)
    with pytest.raises(ValueError, match="not an independent set"):
        solve_max_independent(adj, incumbent=1 << u | 1 << v)
    with pytest.raises(ValueError, match="not an independent set"):
        solve_max_independent(adj, incumbent=1 << len(adj))
    # the star reaches the same check as any other incumbent
    monkeypatch.setattr(sepekr.search, "_star_mask", lambda graph: 1 << u | 1 << v)
    with pytest.raises(ValueError, match="not an independent set"):
        max_intersecting(7, 2, 1)


@pytest.mark.parametrize("n, r, k", [(8, 3, 1), (10, 3, 2)])
def test_the_census_needs_a_floor_at_most_the_optimum(monkeypatch, n, r, k):
    """The star's size is only a floor: one above the optimum finds nothing and is an
    internal fault, and floor 0 raises itself to the same census.  The universe keeps
    one census, so each floor is tried on a fresh universe."""
    expected = extremal_classes(n, r, k)
    monkeypatch.setattr(sepekr.search, "_star_mask", lambda graph: (1 << graph.num_vertices) - 1)
    sepekr.core._universe.cache_clear()
    with pytest.raises(RuntimeError, match="^enumeration returned no optimum"):
        extremal_classes(n, r, k)
    monkeypatch.setattr(sepekr.search, "_star_mask", lambda graph: 0)
    sepekr.core._universe.cache_clear()
    got = extremal_classes(n, r, k)
    assert got.optimum == expected.optimum
    assert (got.witness, got.classes) == (expected.witness, expected.classes)


def test_incumbent_is_kept_or_beaten():
    universe = enumerate_separated(9, 3, 1)
    adj = list(disjointness_rows([s.mask for s in universe.sets]))
    star = sum(1 << i for i, s in enumerate(universe.sets) if 1 in s)
    assert solve_max_independent(adj, incumbent=star)[:2] == (10, star)
    optimum, mask, _ = solve_max_independent(adj, incumbent=1)
    assert optimum == mask.bit_count() == 10
    weights = list(range(len(adj)))
    best, _, _ = solve_max_independent(adj, weights)
    assert solve_max_independent(adj, weights, incumbent=star)[0] == best


# === clique-cover bound and search modes on random graphs ===


@st.composite
def random_graphs(draw, max_vertices):
    """(adj rows, edge set, candidate vertices, weights) for a random simple graph."""
    n = draw(st.integers(0, max_vertices))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = {
        frozenset((u, v))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    }
    adj = [0] * n
    for u, v in map(tuple, edges):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    cand = draw(st.integers(0, (1 << n) - 1))
    weights = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    return adj, edges, cand, weights


def _members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _greedy_independent(adj, within: int = -1) -> int:
    """First-fit independent set in index order, among the vertices of within (all by default)."""
    greedy = 0
    for v in range(len(adj)):
        if within >> v & 1 and not adj[v] & greedy:
            greedy |= 1 << v
    return greedy


def _flipped_cover(adj, weights):
    """search._cover_bound as a function of a candidate mask in adj's own labels.

    It runs on the bit-reversed rows and weights, as the search does, and its
    branch vertex is read back in adj's labels.
    """
    size = len(adj)
    rows = [mirror_mask(row, size) for row in reversed(adj)]
    flipped_weights = None if weights is None else weights[::-1]
    bits = [1 << v for v in range(size)]

    def cover(cand):
        bound, v = _cover_bound(mirror_mask(cand, size), rows, flipped_weights, bits)
        return bound, v if v < 0 else size - 1 - v

    return cover


@settings(max_examples=200)
@given(random_graphs(40))
def test_cover_bound_is_first_fit_partition(graph):
    adj, edges, cand, weights = graph
    members = _members(cand)
    plain, weighted = _flipped_cover(adj, None)(cand), _flipped_cover(adj, weights)(cand)
    assert plain == cover_walk(cand, adj, None)
    assert weighted == cover_walk(cand, adj, weights)
    assert plain[0] == first_fit_clique_bound(members, edges)
    assert weighted[0] == first_fit_clique_bound(members, edges, weights)


@settings(max_examples=150)
@given(random_graphs(14))
def test_cover_bound_is_an_upper_bound(graph):
    adj, edges, cand, weights = graph
    members = _members(cand)
    plain, weighted = _flipped_cover(adj, None)(cand), _flipped_cover(adj, weights)(cand)
    assert plain == cover_walk(cand, adj, None)
    assert weighted == cover_walk(cand, adj, weights)
    assert plain[0] >= max_weight_independent(members, edges)
    assert weighted[0] >= max_weight_independent(members, edges, weights)


@settings(max_examples=200)
@given(random_graphs(40))
def test_cover_bound_picks_the_branch_vertex(graph):
    # the class walk is not in index order, so ties must still go to the lowest index
    adj, _, cand, weights = graph
    plain, weighted = _flipped_cover(adj, None)(cand), _flipped_cover(adj, weights)(cand)
    assert plain == cover_walk(cand, adj, None)
    assert weighted == cover_walk(cand, adj, weights)
    assert plain[1] == branch_vertex(cand, adj)
    assert weighted[1] == branch_vertex(cand, adj)


@settings(max_examples=200)
@given(random_graphs(40))
def test_cover_bound_on_an_independent_set(graph):
    # the walk's answer on an independent set, on which closing a free subtree in one step rests
    adj, _, cand, weights = graph
    cand = _greedy_independent(adj, cand)
    lowest = (cand & -cand).bit_length() - 1
    plain, weighted = _flipped_cover(adj, None)(cand), _flipped_cover(adj, weights)(cand)
    assert plain == cover_walk(cand, adj, None)
    assert weighted == cover_walk(cand, adj, weights)
    assert plain == (cand.bit_count(), lowest)
    assert weighted == (sum(weights[v] for v in _members(cand)), lowest)


def _walk_every_node(adj, weights, target=None, perms=None, incumbent=0):
    """search._search(reversed adj, weights, target, None, perms, incumbent) as a plain DFS
    that walks the cover at every node, free or not, and closes no subtree in one step.  At
    each node it checks search._cover_bound, run on the bit-reversed labels, against cover_walk.

    With perms, the roots are the orbit chain and each node carries the permutations
    that fix what it includes (the identity always among them), as in orbital branching.
    """
    value = [1] * len(adj) if weights is None else weights
    best, nodes, found = incumbent, 0, []
    floor = sum(value[v] for v in _members(incumbent)) if target is None else target - 1
    full = (1 << len(adj)) - 1
    cover = _flipped_cover(adj, weights)
    if perms is None:
        stack = [(full, 0, 0, [list(range(len(adj)))])]
    else:
        stack, excluded = [], 0
        for v in range(len(adj)):
            if not excluded >> v & 1:
                fixing = [p for p in perms if p[v] == v]
                stack.insert(0, (full & ~excluded & ~adj[v] & ~(1 << v), value[v], 1 << v, fixing))
                excluded |= sum({1 << p[v] for p in perms})
    while stack:
        cand, cur, mask, group = stack.pop()
        nodes += 1
        if cur > floor:
            if target is None:
                floor, best = cur, mask
            else:
                if cur > floor + 1:
                    floor, found = cur - 1, []
                found.append(mask)
        if not cand:
            continue
        bound, v = cover_walk(cand, adj, weights)
        assert cover(cand) == (bound, v)
        if cur + bound <= floor:
            continue
        b, orbit = 1 << v, sum({1 << p[v] for p in group})
        stack.append((cand & ~orbit, cur, mask, group))
        stack.append((cand & ~adj[v] & ~b, cur + value[v], mask | b, [p for p in group if p[v] == v]))
    return floor, best, nodes, found


def _search_without_deadline(adj, weights, target=None, perms=None, incumbent=0):
    rows = sepekr.search._reversed(adj, None)
    return sepekr.search._search(rows, weights, target, None, perms, incumbent)


@settings(max_examples=150)
@given(random_graphs(24))
def test_skipping_the_walk_keeps_the_search_tree(graph):
    # floor, best mask, node count and the collected sets in order, free subtrees closed or walked
    adj, _, _, weights = graph
    few = [w % 3 for w in weights]  # ties and zero weights, where the branch order shows
    wide = [w << 94 | w for w in weights]  # below 2^100: the value sum's planes round up
    for w in (None, weights, few, wide, [0] * len(adj)):
        assert _search_without_deadline(adj, w) == _walk_every_node(adj, w)
    greedy = _greedy_independent(adj)
    assert _search_without_deadline(adj, few, incumbent=greedy) == _walk_every_node(
        adj, few, incumbent=greedy
    )
    for target in (0, greedy.bit_count(), greedy.bit_count() + 1):
        assert _search_without_deadline(adj, None, target) == _walk_every_node(adj, None, target)


@settings(max_examples=150)
@given(random_graphs(24))
def test_stopping_at_the_optimum_keeps_the_answer(graph):
    # the floor first reaches the optimum at the set the whole search keeps, since it
    # never replaces a set by one of the same weight; a stop_at above it never fires
    adj, _, _, weights = graph
    few = [w % 3 for w in weights]
    wide = [w << 94 | w for w in weights]
    greedy = _greedy_independent(adj)
    for w in (None, weights, few, wide, [0] * len(adj)):
        for incumbent in (0, greedy):
            whole = solve_max_independent(adj, w, incumbent=incumbent)
            optimum, mask, nodes = whole
            stopped = solve_max_independent(adj, w, incumbent=incumbent, stop_at=optimum)
            assert stopped[:2] == (optimum, mask) and stopped[2] <= nodes
            assert solve_max_independent(adj, w, incumbent=incumbent, stop_at=optimum + 1) == whole


def test_stopping_at_a_node_skips_the_rest_of_the_stack():
    # a triangle reaches its optimum 1 at node 2, the include child of vertex 0, and stops
    # there; the whole search pops the exclude child as node 3 and prunes it
    triangle = [0b110, 0b101, 0b011]
    assert solve_max_independent(triangle) == (1, 0b1, 3)
    assert solve_max_independent(triangle, stop_at=1) == (1, 0b1, 2)
    assert solve_max_independent(triangle, incumbent=0b10, stop_at=1) == (1, 0b10, 0)


@pytest.mark.parametrize("n, r, k", [(9, 2, 1), (10, 3, 1), (12, 5, 1), (13, 3, 2), (14, 4, 1)])
def test_closing_free_subtrees_keeps_the_orbital_search_tree(n, r, k):
    # the orbit chain and orbital branching under both groups, with the star as incumbent
    # and the gap weight and its residues mod 3 (zero weights), which every symmetry keeps
    graph = sepekr.core.separated_universe(n, r, k, 1000)
    adj, dihedral = list(disjointness_rows(graph.masks)), sepekr.search._vertex_permutations(graph)
    star = sepekr.search._star_mask(graph)
    gap = [sepekr.weighted.weight(s, k) for s in graph.vertices]
    for perms in (dihedral, dihedral[:n]):
        for w in (None, gap, [x % 3 for x in gap]):
            assert _search_without_deadline(adj, w, perms=perms, incumbent=star) == _walk_every_node(
                adj, w, perms=perms, incumbent=star
            )
        for target in (1, star.bit_count()):
            assert _search_without_deadline(adj, None, target, perms) == _walk_every_node(
                adj, None, target, perms
            )


def _counted_walks(monkeypatch) -> list[int]:
    """The candidate sets of every cover walk from here on, in the order they are walked."""
    real = sepekr.search._cover_bound
    walks = []

    def counted(cand, *rest):
        walks.append(cand)
        return real(cand, *rest)

    monkeypatch.setattr(sepekr.search, "_cover_bound", counted)
    return walks


def _plane_sum(planes, mask: int) -> int:
    return sum((plane & mask).bit_count() << shift for plane, shift in planes)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 1 << 300), min_size=1, max_size=30), st.data())
def test_value_planes_bound_the_weight_sum_in_at_most_8_planes(weights, data):
    # a mask in the search's labels, vertex i at bit V - 1 - i; each weight rounds up
    # by less than 2^s, and weights below 2^8, or those shifted left, round to themselves
    top = max(weights)
    planes = sepekr.search._value_planes(weights)
    mask = data.draw(st.integers(0, (1 << len(weights)) - 1))
    exact = sum(w for i, w in enumerate(reversed(weights)) if mask >> i & 1)
    assert len(planes) == min(8, top.bit_length())
    s = planes[0][1] if planes else 0
    assert exact <= _plane_sum(planes, mask) <= exact + mask.bit_count() * ((1 << s) - 1)
    low = [w % 256 for w in weights]
    low_exact = sum(w for i, w in enumerate(reversed(low)) if mask >> i & 1)
    assert _plane_sum(sepekr.search._value_planes(low), mask) == low_exact
    assert _plane_sum(sepekr.search._value_planes([w << 200 for w in low]), mask) == low_exact << 200


def test_value_planes_take_one_more_bit_when_rounding_reaches_2_to_the_8():
    # ceil(511 / 2) = 2^8 needs a ninth plane, so the shift is 2: 511 rounds to 128, 1 to 1
    assert sepekr.search._value_planes([511, 1]) == [(0b01, 2), *((0, j) for j in range(3, 9)), (0b10, 9)]


def test_independent_nodes_skip_the_cover_walk(monkeypatch):
    walks = _counted_walks(monkeypatch)
    # a walk at every node with candidates would be 13963 walks and 6905 walks; the free
    # subtrees closed in one step and the nodes pruned by their value sum skip theirs
    assert extremal_classes(18, 8, 1).nodes_explored == 14411
    assert len(walks) == 1230
    walks.clear()
    assert sepekr.weighted.verify_weighted_ekr(15, 3, 1).nodes_explored == 6913
    assert len(walks) == 4352


@pytest.mark.parametrize("n, nodes", [(16, 11219), (18, 25233)])
def test_weighted_solve_nodes_and_optimum(n, nodes):
    report = sepekr.weighted.verify_weighted_ekr(n, 3, 1)
    assert report.nodes_explored == nodes
    assert report.optimum == math.comb(n - 1, 5)  # C(n - 1, (k + 1)r - 1)


def test_wide_weights_search_the_tree_of_their_top_bits(monkeypatch):
    # w << 200 rounds to the planes of w: the same prunes, so the same nodes and walks
    walks = _counted_walks(monkeypatch)
    runs = []
    for shift in (0, 200):
        result = max_intersecting_weighted(15, 3, 1, lambda s: sepekr.weighted.weight(s, 1) << shift)
        runs.append((result, len(walks)))
        walks.clear()
    (narrow, narrow_walks), (wide, wide_walks) = runs
    assert wide.optimum == narrow.optimum << 200 == 2002 << 200
    assert wide.witness == narrow.witness
    assert wide.nodes_explored == narrow.nodes_explored == 6913
    assert wide_walks == narrow_walks == 4352


@settings(max_examples=100)
@given(random_graphs(14))
def test_search_modes_agree_with_brute_force(graph):
    adj, edges, _, weights = graph
    everything = range(len(adj))
    optimum, mask, _ = solve_max_independent(adj)
    assert optimum == max_weight_independent(everything, edges)
    assert optimum == mask.bit_count()
    best, _, _ = solve_max_independent(adj, weights)
    assert best == max_weight_independent(everything, edges, weights)
    assert solve_max_independent(adj, incumbent=_greedy_independent(adj))[0] == optimum
    found, _ = enumerate_max_independent(adj, optimum)
    assert found and all(m.bit_count() == optimum for m in found)
    assert all(adj[v] & m == 0 for m in found for v in _members(m))
    assert enumerate_max_independent(adj, optimum + 1)[0] == []


@settings(max_examples=100)
@given(random_graphs(14))
def test_enumeration_raises_any_floor_up_to_the_optimum(graph):
    adj = graph[0]
    optimum = max_weight_independent(range(len(adj)), graph[1])
    maxima = set(enumerate_max_independent(adj, optimum)[0])
    for target in range(optimum + 1):
        assert set(enumerate_max_independent(adj, target)[0]) == maxima, target
    assert enumerate_max_independent(adj, optimum + 1)[0] == []


@settings(max_examples=100)
@given(random_graphs(24))
def test_unit_weights_walk_the_same_tree_as_no_weights(graph):
    adj = graph[0]
    unit = [1] * len(adj)
    assert solve_max_independent(adj, unit) == solve_max_independent(adj)
    greedy = _greedy_independent(adj)
    assert solve_max_independent(adj, unit, incumbent=greedy) == solve_max_independent(
        adj, incumbent=greedy
    )


@pytest.mark.parametrize("n, r, k", [(12, 3, 1), (14, 4, 1), (15, 3, 2)])
def test_unit_weights_walk_the_same_tree_on_the_symmetry_core(n, r, k):
    graph = DisjointnessGraph(n, r, k, tuple(separated_masks(n, r, k)))
    adj = list(disjointness_rows(graph.masks))
    setup = dict(
        perms=sepekr.search._vertex_permutations(graph),
        incumbent=sepekr.search._star_mask(graph),
    )
    assert solve_max_independent(adj, [1] * len(adj), **setup) == solve_max_independent(
        adj, **setup
    )
