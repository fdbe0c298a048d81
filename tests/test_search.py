"""Exact search: optimum sizes, weighted optima, and extremal class censuses."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepekr import (
    DisjointnessGraph,
    ResourceLimitError,
    are_isomorphic,
    build_kneser,
    build_schrijver,
    canonical_form,
    disjointness_rows,
    enumerate_max_independent,
    enumerate_separated,
    exceptional_family,
    extremal_classes,
    is_intersecting,
    max_intersecting,
    max_intersecting_weighted,
    solve_max_independent,
    star_family,
    star_size_formula,
)
import sepekr.core
import sepekr.search
from sepekr.cli import default_grid
from sepekr.core import count_separated, dihedral_images
from sepekr.search import _cover_bound

from helpers import (
    all_maximum_intersecting,
    branch_vertex,
    count_classes,
    first_fit_clique_bound,
    least_image,
    max_weight_independent,
    max_intersecting_size,
    max_weight_intersecting,
    nx_max_intersecting,
    vertex_permutations,
)


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
        assert canonical_form(result.witness) == result.witness


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
        max_intersecting(14, 4, 1, time_limit=0.0)


def test_time_budget_aborts_inside_the_search():
    started = time.monotonic()
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before node [0-9]+$"):
        max_intersecting(17, 5, 1, time_limit=0.2)
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
        solve_max_independent(adj, time_limit=0.05)
    assert time.monotonic() - started < 1


def test_max_intersecting_time_limit_covers_the_symmetries(monkeypatch):
    real = sepekr.search._vertex_permutations

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return real(*args, **kwargs)

    monkeypatch.setattr(sepekr.search, "_vertex_permutations", slow)
    with pytest.raises(ResourceLimitError, match="before the solve"):
        max_intersecting(9, 3, 1, time_limit=0.2)


def test_weighted_time_limit_covers_the_weights():
    calls = []

    def slow_weight(s):
        if not calls:
            time.sleep(0.3)
        calls.append(s)
        return 1

    with pytest.raises(ResourceLimitError, match="before the solve"):
        max_intersecting_weighted(9, 3, 1, slow_weight, time_limit=0.2)


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
    assert are_isomorphic(result.classes[0], star_family(6, 2, 1, 1))
    assert are_isomorphic(result.classes[1], exceptional_family(2, 1))


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
            assert canonical_form(rep) == rep
            assert is_intersecting(rep)
            assert len(rep) == result.optimum
            for other in reps[i + 1 :]:
                assert not are_isomorphic(rep, other)


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
            matches = [d for d in dihedral if are_isomorphic(rep, d)]
            assert len(matches) == 1


def test_exceptional_families_appear_in_census():
    for r in (2, 3, 4):
        classes = extremal_classes(2 * r + 2, r, 1).classes
        for i in range(1, r // 2 + 1):
            fam = exceptional_family(r, i)
            assert any(are_isomorphic(fam, rep) for rep in classes), (r, i)


def test_classes_vertex_budget():
    with pytest.raises(ResourceLimitError):
        extremal_classes(10, 3, 1, max_vertices=5)


@pytest.mark.parametrize(
    "slow_stage, next_stage",
    [
        ("_vertex_permutations", "enumerating"),
        ("enumerate_max_independent", "canonicalising"),
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
        extremal_classes(8, 3, 1, time_limit=0.2)


@pytest.mark.parametrize("rotations_only", [False, True])
def test_each_class_is_canonicalised_once(monkeypatch, rotations_only):
    """One orbit walk per class: every optimum the chain meets again is already seen."""
    calls = []
    real = sepekr.search._orbit

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sepekr.search, "_orbit", counted)
    result = extremal_classes(10, 4, 1, rotations_only=rotations_only)
    assert len({c.member_keys for c in result.classes}) == len(result.classes)
    assert len(calls) == len(result.classes)


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
        for rep in result.classes:
            if tuple(sorted(rep.member_keys)) != least_image(rep.member_keys, n, rotations_only):
                problems.append(f"representative {rep.to_line()} is not its least image")
    witness = max_intersecting(n, r, k).witness
    if tuple(sorted(witness.member_keys)) != least_image(witness.member_keys, n):
        problems.append(f"witness {witness.to_line()} is not its least image")
    chain, _ = enumerate_max_independent(adj, optimum, perms=perms)
    full, _ = enumerate_max_independent(adj, optimum)
    oracle = {sum(1 << members.index(m) for m in fam) for fam in maxima}
    if len(chain) != len(set(chain)) or not _orbit_closure(chain, perms) == set(full) == oracle:
        problems.append("the orbits of the chain's optima are not all the optima")
    return problems


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
    plain = {key: _answers(*key[0], key[1]) for key in expected}
    assert plain == expected
    assert extremal_classes(8, 3, 1).nodes_explored == 72  # the count before orbital branching


def test_the_solve_builds_circsets_for_the_witness_only(monkeypatch):
    built = []
    real = sepekr.core.CircSet.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    sepekr.core._universe.cache_clear()
    monkeypatch.setattr(sepekr.core.CircSet, "__post_init__", counted)
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
        graph = DisjointnessGraph.from_family(enumerate_separated(n, r, k))
        members = [s.elems for s in graph.vertices]
        perms = sepekr.search._vertex_permutations(graph, rotations_only)
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
    graph = DisjointnessGraph.from_family(enumerate_separated(n, r, k))
    masks = [s.mask for s in graph.vertices.sets]
    index = {m: i for i, m in enumerate(masks)}
    perms = sepekr.search._vertex_permutations(graph, rotations_only)
    problems = []
    images = dihedral_images(masks, n, rotations_only)
    if perms != [[index[m] for m in image] for image in images]:
        problems.append("not the dihedral_images permutations in their order")
    members = [s.elems for s in graph.vertices]
    if {tuple(p) for p in perms} != {tuple(p) for p in vertex_permutations(members, n, rotations_only)}:
        problems.append("not the group of the oracle")
    adj = graph.adjacency
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
    internal fault, and floor 0 raises itself to the same census."""
    expected = extremal_classes(n, r, k)
    monkeypatch.setattr(sepekr.search, "_star_mask", lambda graph: (1 << graph.num_vertices) - 1)
    with pytest.raises(RuntimeError, match="^enumeration returned no optimum"):
        extremal_classes(n, r, k)
    monkeypatch.setattr(sepekr.search, "_star_mask", lambda graph: 0)
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


def _greedy_independent(adj) -> int:
    """First-fit independent set in index order."""
    greedy = 0
    for v in range(len(adj)):
        if not adj[v] & greedy:
            greedy |= 1 << v
    return greedy


@settings(max_examples=200)
@given(random_graphs(40))
def test_cover_bound_is_first_fit_partition(graph):
    adj, edges, cand, weights = graph
    members = _members(cand)
    assert _cover_bound(cand, adj, None)[0] == first_fit_clique_bound(members, edges)
    assert _cover_bound(cand, adj, weights)[0] == first_fit_clique_bound(
        members, edges, weights
    )


@settings(max_examples=150)
@given(random_graphs(14))
def test_cover_bound_is_an_upper_bound(graph):
    adj, edges, cand, weights = graph
    members = _members(cand)
    assert _cover_bound(cand, adj, None)[0] >= max_weight_independent(members, edges)
    assert _cover_bound(cand, adj, weights)[0] >= max_weight_independent(
        members, edges, weights
    )


@settings(max_examples=200)
@given(random_graphs(40))
def test_cover_bound_picks_the_branch_vertex(graph):
    # the class walk is not in index order, so ties must still go to the lowest index
    adj, _, cand, weights = graph
    assert _cover_bound(cand, adj, None)[1] == branch_vertex(cand, adj)
    assert _cover_bound(cand, adj, weights)[1] == branch_vertex(cand, adj)


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
    graph = DisjointnessGraph.from_family(enumerate_separated(n, r, k))
    adj = graph.adjacency
    setup = dict(
        perms=sepekr.search._vertex_permutations(graph),
        incumbent=sepekr.search._star_mask(graph),
    )
    assert solve_max_independent(adj, [1] * len(adj), **setup) == solve_max_independent(
        adj, **setup
    )
