"""Exact search: optimum sizes, weighted optima, and extremal class censuses."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepekr import (
    ResourceLimitError,
    are_isomorphic,
    build_kneser,
    build_schrijver,
    canonical_form,
    disjointness_adjacency,
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
import sepekr.search
from sepekr.search import _cover_bound

from helpers import (
    all_maximum_intersecting,
    count_classes,
    first_fit_clique_bound,
    max_weight_independent,
    max_intersecting_size,
    max_weight_intersecting,
    nx_max_intersecting,
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

    monkeypatch.setattr("sepekr.core.enumerate_separated", refuse)
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
        max_intersecting(15, 5, 1, time_limit=0.2)
    assert time.monotonic() - started < 2


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
        adj = disjointness_adjacency(universe.sets)
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
        ("solve_max_independent", "enumerating"),
        ("enumerate_max_independent", "canonicalising"),
        ("canonical_form", "canonicalising"),
    ],
)
def test_classes_time_limit_covers_the_whole_call(monkeypatch, slow_stage, next_stage):
    """One deadline: a stage that ends after it stops the call before the next stage runs."""
    real = getattr(sepekr.search, slow_stage)

    def slow(*args, **kwargs):
        result = real(*args, **kwargs)
        time.sleep(0.3)
        return result

    monkeypatch.setattr(sepekr.search, slow_stage, slow)
    with pytest.raises(ResourceLimitError, match=next_stage):
        extremal_classes(8, 3, 1, time_limit=0.2)


@pytest.mark.parametrize("rotations_only", [False, True])
def test_each_class_is_canonicalised_once(monkeypatch, rotations_only):
    calls = []
    real = sepekr.search.canonical_form

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sepekr.search, "canonical_form", counted)
    result = extremal_classes(10, 4, 1, rotations_only=rotations_only)
    assert len({c.member_keys for c in result.classes}) == len(result.classes)
    assert len(calls) == len(result.classes)


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


@settings(max_examples=200)
@given(random_graphs(40))
def test_cover_bound_is_first_fit_partition(graph):
    adj, edges, cand, weights = graph
    members = _members(cand)
    assert _cover_bound(cand, adj, None) == first_fit_clique_bound(members, edges)
    assert _cover_bound(cand, adj, weights) == first_fit_clique_bound(
        members, edges, weights
    )


@settings(max_examples=150)
@given(random_graphs(14))
def test_cover_bound_is_an_upper_bound(graph):
    adj, edges, cand, weights = graph
    members = _members(cand)
    assert _cover_bound(cand, adj, None) >= max_weight_independent(members, edges)
    assert _cover_bound(cand, adj, weights) >= max_weight_independent(
        members, edges, weights
    )


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
    found, _ = enumerate_max_independent(adj, optimum)
    assert found and all(m.bit_count() == optimum for m in found)
    assert all(adj[v] & m == 0 for m in found for v in _members(m))
    assert enumerate_max_independent(adj, optimum + 1)[0] == []
