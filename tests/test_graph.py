"""Kneser and Schrijver disjointness graphs: counts, invariants, DIMACS export."""

import io
import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sepekr.core
import sepekr.graph
from sepekr import (
    CircSet,
    DisjointnessGraph,
    ResourceLimitError,
    SetFamily,
    build_kneser,
    build_schrijver,
    chromatic_number,
    disjointness_rows,
    enumerate_separated,
    export_dimacs,
    extremal_classes,
    independence_number,
    max_intersecting,
    max_intersecting_weighted,
    random_maximal_intersecting,
    separated_masks,
    solve_max_independent,
    star_family,
    verify_compression_suite,
)
from sepekr.cli import run
from sepekr.core import count_separated, mask_elems, row_edges

from helpers import dsatur_steps, kept_by_name, max_intersecting_size

PETERSEN = build_kneser(5, 2)


def brute_chromatic(adj: tuple[int, ...]) -> int:
    """Smallest c admitting a proper colouring, by plain backtracking."""
    v_count = len(adj)

    def colorable(c: int) -> bool:
        colors = [-1] * v_count

        def place(v: int) -> bool:
            if v == v_count:
                return True
            forbidden = {colors[u] for u in range(v) if adj[v] >> u & 1}
            for color in range(c):
                if color not in forbidden:
                    colors[v] = color
                    if place(v + 1):
                        return True
                    colors[v] = -1
            return False

        return place(0)

    for c in range(1, v_count + 1):
        if colorable(c):
            return c
    raise AssertionError


# === construction ===


def test_kneser_5_2_counts():
    assert PETERSEN.num_vertices == 10
    assert PETERSEN.num_edges == 15
    degrees = [row.bit_count() for row in disjointness_rows(PETERSEN.masks)]
    assert degrees == [3] * 10  # 3-regular


def test_kneser_edge_count_formula():
    for n, r in [(5, 2), (6, 2), (7, 2), (7, 3)]:
        g = build_kneser(n, r)
        assert g.num_vertices == math.comb(n, r)
        assert g.num_edges == math.comb(n, r) * math.comb(n - r, r) // 2


def test_schrijver_5_2_counts():
    g = build_schrijver(5, 2)
    assert g.num_vertices == 5
    assert g.num_edges == 5
    assert [s.elems for s in g.vertices] == [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]


def test_schrijver_is_induced_subgraph_of_kneser():
    for n, r, k in [(6, 2, 1), (7, 2, 1), (8, 2, 2), (9, 3, 1)]:
        kneser = build_kneser(n, r)
        schrijver = build_schrijver(n, r, k)
        index = {s.elems: i for i, s in enumerate(kneser.vertices)}
        keep = {s.elems for s in schrijver.vertices}
        expected = {
            (min(a, b), max(a, b))
            for u, v in kneser.edges()
            for a, b in [
                (index[kneser.vertices.sets[u].elems], index[kneser.vertices.sets[v].elems])
            ]
            if kneser.vertices.sets[u].elems in keep
            and kneser.vertices.sets[v].elems in keep
        }
        got = {
            tuple(
                sorted(
                    (
                        index[schrijver.vertices.sets[u].elems],
                        index[schrijver.vertices.sets[v].elems],
                    )
                )
            )
            for u, v in schrijver.edges()
        }
        assert got == expected


def test_rotation_is_an_automorphism():
    g = build_schrijver(7, 2, 1)
    index = {s.elems: i for i, s in enumerate(g.vertices)}
    perm = {
        i: index[tuple(sorted((x % 7) + 1 for x in s.elems))]
        for i, s in enumerate(g.vertices.sets)
    }
    edges = {(u, v) for u, v in g.edges()}
    mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
    assert mapped == edges


def test_build_validation():
    with pytest.raises(ValueError):
        build_kneser(4, 5)
    with pytest.raises(ValueError):
        build_schrijver(5, 3, 1)
    with pytest.raises(ResourceLimitError):
        build_kneser(20, 8)
    with pytest.raises(ResourceLimitError):
        build_schrijver(12, 3, 1, max_vertices=10)


def test_one_graph_type_per_instance():
    assert sepekr.graph.DisjointnessGraph is sepekr.core.DisjointnessGraph is DisjointnessGraph
    g = build_schrijver(7, 2, 1)
    assert g is sepekr.core.separated_universe(7, 2, 1, 100)
    assert DisjointnessGraph(7, 2, 1, tuple(separated_masks(7, 2, 1))) == g
    assert DisjointnessGraph(7, 2, 1, g.masks).reversed_rows(None) == g.reversed_rows(None)
    assert g.subfamily(0b1011).sets == tuple(g.vertices.sets[i] for i in (0, 1, 3))
    assert g.subfamily(0) == SetFamily(7, 2, 1, ())


def test_rows_are_lazy_and_built_once_per_instance(enumerations, monkeypatch, capsys):
    builds = []
    real = sepekr.core.disjointness_rows

    def counted(masks, deadline=None):
        builds.append(len(masks))
        return real(masks, deadline)

    monkeypatch.setattr("sepekr.core.disjointness_rows", counted)
    assert run(["enumerate", "--n", "13", "--r", "3", "--k", "1"]) == 0
    assert capsys.readouterr().out.startswith("13 3 1 : {1,3,5} ")
    assert len(star_family(13, 3, 1, 1)) == 36
    assert builds == []

    enumerations.clear()
    assert max_intersecting(12, 3, 1).optimum == 28
    graph = build_schrijver(12, 3, 1)
    assert graph.num_vertices == 112
    assert independence_number(graph) == 28
    for seed in range(3):
        family = random_maximal_intersecting(12, 3, 1, random.Random(seed))
        assert verify_compression_suite(family).clause("input-intersecting").passed
    disjoint = [(u, v) for (u, a), (v, b) in combinations(enumerate(graph.masks), 2) if not a & b]
    assert list(graph.edges()) == disjoint
    assert graph.num_edges == len(disjoint)
    assert enumerations == [(12, 3, 1)]
    # once: the searches' rows, which the sampler, the suite's members table, the edges and
    # the edge count read too
    assert builds == [112]


def test_every_reader_keeps_the_one_row_set(capsys):
    # each reader of a universe's rows, the colouring included, reads the rows in the
    # search's labels; none keeps a second row set
    sepekr.core._universe.cache_clear()
    graph = build_schrijver(9, 3, 1)  # 30 vertices, within the colouring limit
    readers = [
        lambda: max_intersecting(9, 3, 1),
        lambda: extremal_classes(9, 3, 1),
        lambda: max_intersecting_weighted(9, 3, 1, lambda s: s.elems[0]),
        lambda: independence_number(graph),
        lambda: chromatic_number(graph),
        lambda: verify_compression_suite(random_maximal_intersecting(9, 3, 1, random.Random(0))),
        lambda: list(graph.edges()),
        lambda: graph.num_edges,
        lambda: graph.to_json_dict(),
        lambda: export_dimacs(graph, io.StringIO()),
        lambda: run(["graph", "--kind", "schrijver", "--n", "9", "--r", "3", "--k", "1", "--chi"]),
    ]
    for read in readers:
        read()
        assert "_rows" not in vars(graph)
        assert {name for name in kept_by_name(graph) if "rows" in name} == {"_reversed_rows"}
    assert build_schrijver(9, 3, 1) is graph
    assert capsys.readouterr().out == "schrijver n=9 r=3 k=1: 30 vertices, 138 edges\nchi 5\n"


@st.composite
def member_masks(draw):
    """n, r and 1 to 12 distinct r-subsets of [n] as masks, in any order, with n <= 10."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 10))
    masks = st.sampled_from(separated_masks(n, r, 0))
    return n, r, tuple(draw(st.lists(masks, min_size=1, max_size=12, unique=True)))


@settings(max_examples=150, deadline=None)
@given(member_masks())
@example((1, 1, (0b1,)))
@example((3, 1, (0b1, 0b100)))
@example((3, 2, (0b110, 0b11)))
def test_the_edges_from_the_kept_rows_are_the_vertex_order_pairs(instance):
    n, r, masks = instance
    assert list(DisjointnessGraph(n, r, 0, masks).edges()) == list(row_edges(disjointness_rows(masks)))


# === invariants ===


def test_petersen_invariants():
    assert independence_number(PETERSEN) == 4
    assert chromatic_number(PETERSEN) == 3


def test_schrijver_5_2_invariants():
    g = build_schrijver(5, 2)
    assert independence_number(g) == 2
    assert chromatic_number(g) == 3  # a 5-cycle


def test_schrijver_chromatic_numbers():
    # r = 2 instances of the tight lower bound n - 2r + 2
    for n in (5, 6, 7, 9):
        g = build_schrijver(n, 2, 1)
        assert chromatic_number(g) == n - 2, n
    assert chromatic_number(build_schrijver(8, 3, 1)) == 4
    assert chromatic_number(build_schrijver(9, 3, 1)) == 5


def test_chromatic_matches_brute_force():
    for n, r, k in [(5, 2, 1), (6, 2, 1), (7, 2, 1), (8, 2, 2)]:
        g = build_schrijver(n, r, k)
        assert chromatic_number(g) == brute_chromatic(list(disjointness_rows(g.masks))), (n, r, k)


def test_independence_matches_search_and_oracle():
    for n, r, k in [(6, 2, 1), (8, 2, 1), (9, 3, 1), (9, 2, 2)]:
        g = build_schrijver(n, r, k)
        alpha = independence_number(g)
        assert alpha == max_intersecting(n, r, k).optimum
        assert alpha == max_intersecting_size([s.elems for s in g.vertices])


def test_chromatic_edge_cases():
    empty_edges = build_schrijver(4, 2, 1)  # two disjoint pairs, one edge
    assert empty_edges.num_edges == 1
    assert chromatic_number(empty_edges) == 2
    complete = build_schrijver(5, 1, 4)  # all five singletons, pairwise disjoint
    assert complete.num_vertices == 5
    assert complete.num_edges == 10
    assert chromatic_number(complete) == 5
    single = build_kneser(2, 2)  # one vertex, no edges
    assert single.num_vertices == 1
    assert chromatic_number(single) == 1
    with pytest.raises(ResourceLimitError):
        chromatic_number(build_kneser(9, 3))


@st.composite
def small_disjointness_graphs(draw):
    """Disjointness graphs on 1 to 10 random 2- or 3-subsets of [n], n <= 8."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=r, max_value=8))
    universe = enumerate_separated(n, r, 0).sets
    members = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=10, unique=True))
    return DisjointnessGraph(n, r, 0, tuple(s.mask for s in SetFamily(n, r, 0, members)))


@settings(max_examples=150, deadline=None)
@given(small_disjointness_graphs())
def test_chromatic_matches_brute_force_on_random_graphs(graph):
    assert chromatic_number(graph) == brute_chromatic(list(disjointness_rows(graph.masks)))


@settings(max_examples=150, deadline=None)
@given(small_disjointness_graphs())
def test_colouring_takes_the_oracle_steps_in_the_oracle_order(graph):
    # the random graphs are not regular, so the degree tie-break decides some steps
    adj = list(disjointness_rows(graph.masks))
    cliques = [
        list(c)
        for size in range(len(adj) + 1)
        for c in combinations(range(len(adj)), size)
        if all(adj[u] >> w & 1 for u, w in combinations(c, 2))
    ]
    clique = max(cliques, key=len)
    rows, labelled = sepekr.graph._degree_order(adj, clique)
    stages = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sepekr.graph, "seconds_left", lambda deadline, stage: stages.append(stage))
        for c in range(len(clique), brute_chromatic(adj) + 1):
            stages.clear()
            # a deadline that never passes: the clock is read at every step, and only with one;
            # every try reads the one relabelling, as in chromatic_number
            colourable = sepekr.graph._colorable(rows, c, labelled, math.inf)
            assert (colourable, len(stages)) == dsatur_steps(adj, c, clique), c


def _matching_and_a_chord(pairs: int) -> DisjointnessGraph:
    """A complete graph on `pairs` disjoint pairs, plus {1, 3}, which meets two of them."""
    members = [CircSet(2 * pairs, (2 * i + 1, 2 * i + 2)) for i in range(pairs)]
    family = SetFamily(2 * pairs, 2, 0, (*members, CircSet(2 * pairs, (1, 3))))
    return DisjointnessGraph(2 * pairs, 2, 0, tuple(s.mask for s in family))


@pytest.mark.parametrize("c", [7, 8, 9, 15, 16, 17])
def test_colouring_carries_saturation_across_plane_boundaries(c):
    # a vertex that sees c - 1 or c colours sets the top bit-plane of its count; on the
    # complete graphs the counts rise by one per step, and with the chord (vertex 1) a
    # vertex of lower saturation competes with the pair whose count reaches the top plane
    cases = [(list(disjointness_rows(build_kneser(m, 1).masks)), clique) for m in (c, c + 1) for clique in ([], [0, 1])]
    cases += [
        (list(disjointness_rows(_matching_and_a_chord(m).masks)), clique) for m in (c, c + 1) for clique in ([], [0, 2])
    ]
    stages = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sepekr.graph, "seconds_left", lambda deadline, stage: stages.append(stage))
        for adj, clique in cases:
            stages.clear()
            rows, labelled = sepekr.graph._degree_order(adj, clique)
            colourable = sepekr.graph._colorable(rows, c, labelled, math.inf)
            assert (colourable, len(stages)) == dsatur_steps(adj, c, clique), (len(adj), clique)


def test_two_forced_neighbours_of_one_colour_end_the_step():
    # a triangle with vertex 0 precoloured, at c = 2: vertices 1 and 2 each have colour 1
    # left, and they are adjacent, so the first step fails; colouring both forced vertices
    # without the check would return True
    adj = [0b110, 0b101, 0b011]
    rows, clique = sepekr.graph._degree_order(adj, [0])
    stages = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sepekr.graph, "seconds_left", lambda deadline, stage: stages.append(stage))
        assert sepekr.graph._colorable(rows, 2, clique, math.inf) is False
    assert stages == ["colouring step 1"]
    assert dsatur_steps(adj, 2, [0]) == (False, 1)


def test_chromatic_number_of_the_empty_graph():
    assert chromatic_number(DisjointnessGraph(5, 2, 0, ())) == 0


def test_chromatic_time_limit_covers_the_clique_search(monkeypatch):
    # on a universe two clique searches run, the orbital proof of the clique number (with
    # perms) and then the plain search that stops at it; both share the one deadline
    real = sepekr.graph._search
    calls = []

    def sleep_at(call, before):
        def patched(*args, **kwargs):
            calls.append("orbital" if kwargs.get("perms") else "plain")
            if before and len(calls) == call:
                time.sleep(0.3)
            result = real(*args, **kwargs)
            if not before and len(calls) == call:
                time.sleep(0.3)
            return result

        return patched

    cases = [
        # the last clique search ends past the deadline, so the colouring never starts
        (2, False, "before the colouring", ["orbital", "plain"]),
        # the orbital search ends past it, so the plain search stops at its first read,
        # before its first node
        (1, False, "^time limit exceeded before node 1$", ["orbital", "plain"]),
        # the deadline passes before the clique search starts; the search shares it instead
        # of starting a budget of its own, so it stops at its first read
        (1, True, "^time limit exceeded before node 1$", ["orbital"]),
    ]
    for call, before, stage, searches in cases:
        calls.clear()
        monkeypatch.setattr(sepekr.graph, "_search", sleep_at(call, before))
        with pytest.raises(ResourceLimitError, match=stage):
            chromatic_number(build_schrijver(7, 2, 1), deadline=time.monotonic() + 0.2)
        assert calls == searches


def test_chromatic_time_limit():
    # SG(11,4,1) takes about 0.5-0.7 raw s to colour exactly (93855 steps, on a shared 2-core
    # machine); a budget of 0.05 s aborts it
    g = build_schrijver(11, 4, 1)
    with pytest.raises(ResourceLimitError, match="before colouring step"):
        chromatic_number(g, deadline=time.monotonic() + 0.05)
    assert chromatic_number(build_schrijver(9, 3, 1), deadline=time.monotonic() + 60) == 5


def test_chromatic_number_of_every_stable_kneser_graph_within_the_colouring_limit():
    # chi(SG(n,r,k)) = n - (k+1)(r-1): for k = 1 this is Schrijver's theorem; for k >= 2 it is
    # Meunier's conjecture (JCTA 2011), which this checks by computation on these instances
    # only.  All 63 take about 0.7 raw s together.
    instances = [
        (n, r, k)
        for k in range(1, 5)
        for r in range(2, 5)
        for n in range((k + 1) * r, 40)
        if count_separated(n, r, k) <= sepekr.graph.COLORING_MAX_VERTICES
    ]
    assert len(instances) == 63
    for n, r, k in instances:
        assert chromatic_number(build_schrijver(n, r, k)) == n - (k + 1) * (r - 1), (n, r, k)


class _Precoloured(Exception):
    """Raised in place of the relabelling before the colouring, once chromatic_number has chosen its clique."""


def _complement(adj: list[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~row & ~(1 << v) for v, row in enumerate(adj)]


def test_the_precoloured_clique_is_the_plain_search_clique_on_every_stable_kneser_graph(monkeypatch):
    # the orbital proof of the clique number only tells the plain search where to stop,
    # so it precolours the clique the whole plain search returns, and every colouring
    # step stays the same; the 63 instances of the chi test, and the 20 Kneser graphs
    # (k = 0), the edgeless ones with n < 2r among them.  Both searches read the complement
    # of the universe's kept rows, which gives what solve_max_independent gives on the
    # vertex-order complement, stopped or not
    instances = [
        (n, r, k)
        for k in range(5)
        for r in range(2, 5)
        for n in range((k + 1) * r, 40)
        if count_separated(n, r, k) <= sepekr.graph.COLORING_MAX_VERTICES
    ]
    assert len(instances) == 63 + 20
    real = sepekr.graph._search
    stops, cliques = [], []

    def recorded(*args, **kwargs):
        if not kwargs.get("perms"):
            stops.append(kwargs.get("stop_at"))
        return real(*args, **kwargs)

    def precoloured(adj, clique):
        cliques.append(clique)
        raise _Precoloured

    monkeypatch.setattr(sepekr.graph, "_search", recorded)
    monkeypatch.setattr(sepekr.graph, "_degree_order", precoloured)
    for n, r, k in instances:
        graph = build_schrijver(n, r, k)
        complement = _complement(list(disjointness_rows(graph.masks)))
        omega, mask, _ = solve_max_independent(complement)
        with pytest.raises(_Precoloured):
            chromatic_number(graph)
        assert (stops.pop(), cliques.pop()) == (omega, [e - 1 for e in mask_elems(mask)]), (n, r, k)
        kept = _complement(list(graph.reversed_rows(None)))
        for stop_at in (None, omega):
            expected = solve_max_independent(complement, stop_at=stop_at)
            assert real(kept, stop_at=stop_at)[:3] == expected, (n, r, k, stop_at)


def test_the_orbital_proof_stops_the_plain_clique_search_early():
    # SG(11,2,1): the plain search meets its clique of 5 at node 7 and proves it by node
    # 2739; the orbital search proves 5 in 242 nodes, and the plain search stops at node 7
    graph = build_schrijver(11, 2, 1)
    complement = _complement(list(disjointness_rows(graph.masks)))
    whole = solve_max_independent(complement)
    orbital = solve_max_independent(complement, perms=sepekr.search._vertex_permutations(graph))
    stopped = solve_max_independent(complement, stop_at=orbital[0])
    assert (whole[0], whole[2], orbital[0], orbital[2]) == (5, 2739, 5, 242)
    assert stopped == (5, whole[1], 7)


@pytest.mark.parametrize("n, r, k", [(9, 3, 1), (12, 3, 1), (13, 4, 1), (11, 2, 3), (9, 2, 0), (9, 3, 0)])
def test_a_universe_s_independence_number_is_the_orbital_solve(monkeypatch, n, r, k):
    # in lexicographic order and reversed, a whole universe takes max_intersecting's solve
    # (the star and the orbit chain) on its (n, r, k), within its own vertex count, and its
    # alpha is the plain search's
    real = sepekr.graph.max_intersecting
    solved = []

    def recorded(n, r, k, **kwargs):
        solved.append((n, r, k, kwargs["max_vertices"]))
        return real(n, r, k, **kwargs)

    monkeypatch.setattr(sepekr.graph, "max_intersecting", recorded)
    masks = tuple(separated_masks(n, r, k))
    for graph in (build_schrijver(n, r, k), DisjointnessGraph(n, r, k, masks[::-1])):
        plain = sepekr.search._search(graph.reversed_rows(None))[0]
        assert independence_number(graph) == plain == max_intersecting(n, r, k).optimum
        assert solved.pop() == (n, r, k, graph.num_vertices)


def test_a_graph_that_is_not_a_universe_takes_the_plain_path(monkeypatch):
    # a subset of a universe's masks, the duplicated-mask graph of test_core, as many
    # masks as the universe with one twice, and the empty graph of an empty universe: no
    # symmetry is read, and brute force agrees
    masks = tuple(separated_masks(7, 2, 1))
    graphs = [
        DisjointnessGraph(7, 2, 1, tuple(random.Random(7).sample(masks, 9))),
        DisjointnessGraph(7, 2, 1, masks[1:]),
        DisjointnessGraph(7, 2, 1, (masks[1], masks[1], masks[0])),
        DisjointnessGraph(7, 2, 1, masks[:-1] + masks[:1]),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("took the universe path")

    monkeypatch.setattr(sepekr.graph, "max_intersecting", refuse)
    monkeypatch.setattr(sepekr.graph, "_vertex_permutations", refuse)
    for graph in graphs:
        assert independence_number(graph) == max_intersecting_size([mask_elems(m) for m in graph.masks])
        assert chromatic_number(graph) == brute_chromatic(list(disjointness_rows(graph.masks)))
    empty = DisjointnessGraph(3, 2, 1, ())  # no 1-separated 2-set fits on 3 points
    assert independence_number(empty) == chromatic_number(empty) == 0


@pytest.mark.parametrize(
    "n, r, k, chi, steps",
    # each id ends in the step total of Brélaz's rule alone (degree, then index, after the
    # colour count) with one vertex coloured per step, as the ids were first named, so that
    # it shows what Sewell's tie-break and the forced rounds save together; the comment
    # gives Brélaz's rule alone with forced rounds
    [
        pytest.param(8, 3, 1, 4, 54, id="8-3-4-102"),  # 64
        pytest.param(9, 2, 1, 7, 198, id="9-2-7-808"),  # 389
        pytest.param(9, 3, 1, 5, 316, id="9-3-5-968"),  # 595
        pytest.param(10, 2, 1, 8, 474, id="10-2-8-7580"),  # 3481
        pytest.param(11, 2, 1, 9, 1394, id="11-2-9-61625"),  # 27697
        pytest.param(12, 2, 1, 10, 4145, id="12-2-10-1655571"),  # 727766
        # not regular, and its tries run deep
        pytest.param(10, 3, 1, 6, 7707, id="10-3-6-250661"),  # 108250
        # k = 0 is the Kneser graph, which is regular, so only the shared count and the
        # index break ties
        pytest.param(9, 2, 0, 7, 208, id="kneser-9-2-7-1434"),  # 675
    ],
)
def test_colouring_visits_a_frozen_number_of_steps(monkeypatch, n, r, k, chi, steps):
    # with a deadline the clock is checked at every step, and each colouring step names
    # itself once; the totals freeze the DSATUR order with Sewell's tie-break, the forced
    # rounds, the precoloured clique and the fresh-colour rule (tests/helpers.dsatur_steps
    # gives each); the relabelling into degree order runs once, for every try
    stages, relabelled = [], []
    real = sepekr.graph._degree_order

    def record_order(adj, clique):
        relabelled.append(len(clique))
        return real(adj, clique)

    def record(deadline, stage):
        stages.append(stage)

    monkeypatch.setattr(sepekr.graph, "seconds_left", record)
    monkeypatch.setattr(sepekr.graph, "_degree_order", record_order)
    assert chromatic_number(build_schrijver(n, r, k), deadline=math.inf) == chi
    assert sum(stage.startswith("colouring step") for stage in stages) == steps
    assert len(relabelled) == 1 and relabelled[0] < chi


# === serialisation ===


def test_dimacs_golden_schrijver_5_2():
    buf = io.StringIO()
    export_dimacs(build_schrijver(5, 2), buf)
    assert buf.getvalue() == "p edge 5 5\ne 1 3\ne 1 4\ne 2 4\ne 2 5\ne 3 5\n"


def test_dimacs_to_path_matches_filelike(tmp_path):
    g = build_kneser(5, 2)
    buf = io.StringIO()
    export_dimacs(g, buf)
    path = tmp_path / "petersen.dimacs"
    export_dimacs(g, path)
    assert path.read_text(encoding="ascii") == buf.getvalue()
    lines = buf.getvalue().splitlines()
    assert lines[0] == "p edge 10 15"
    assert len(lines) == 16


def test_dimacs_streams_the_same_bytes_and_writes_nothing_past_the_deadline(tmp_path, monkeypatch):
    # 246 790 edges, 16 blocks of lines; the expected text is built from the masks alone
    graph = build_schrijver(40, 2, 1)
    masks = graph.masks
    pairs = [(u, v) for u, v in combinations(range(len(masks)), 2) if not masks[u] & masks[v]]
    expected = f"p edge {len(masks)} {len(pairs)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in pairs)
    path = tmp_path / "g.dimacs"
    export_dimacs(graph, path)
    assert path.read_text(encoding="ascii") == expected
    buf = io.StringIO()
    export_dimacs(graph, buf)
    assert buf.getvalue() == expected

    real = DisjointnessGraph.edges

    def stalls_mid_walk(self, deadline=None):
        for count, edge in enumerate(real(self, deadline), 1):
            yield edge
            if count == 20_000:  # lines already in the scratch file when the deadline passes
                time.sleep(0.3)

    monkeypatch.setattr(DisjointnessGraph, "edges", stalls_mid_walk)
    late = tmp_path / "late.dimacs"
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before the edges of vertex"):
        export_dimacs(graph, late, deadline=time.monotonic() + 0.2)
    assert not late.exists()


def test_graph_json_shape():
    g = build_schrijver(5, 2)
    data = g.to_json_dict()
    assert data["vertices"] == [[1, 3], [1, 4], [2, 4], [2, 5], [3, 5]]
    assert data["edges"] == [[0, 2], [0, 3], [1, 3], [1, 4], [2, 4]]


def test_the_search_rows_count_the_edges():
    # independence_number builds only the rows in the search's labels, and the edge
    # count reads them instead of building the vertex-label rows
    graph = DisjointnessGraph(11, 3, 1, tuple(separated_masks(11, 3, 1)))
    assert independence_number(graph) == math.comb(7, 2)  # the star, C(n - kr - 1, r - 1)
    assert graph.num_edges == sum(1 for a, b in combinations(graph.masks, 2) if not a & b)
    assert "_rows" not in vars(graph)


@pytest.mark.parametrize(
    "count",
    [
        lambda graph, deadline: graph.edge_count(deadline),
        lambda graph, deadline: export_dimacs(graph, io.StringIO(), deadline=deadline),
        lambda graph, deadline: run(
            ["graph", "--kind", "schrijver", "--n", "9", "--r", "3", "--k", "1", "--limit-seconds", "60"]
        ),
    ],
    ids=["edge_count", "export_dimacs", "cli_graph"],
)
def test_the_edge_count_reads_the_deadline_once_per_block_of_rows(monkeypatch, capsys, count):
    # 30 rows in blocks of 8: the caller's deadline is read once before each block
    sepekr.core._universe.cache_clear()
    graph = build_schrijver(9, 3, 1)
    graph.reversed_rows(None)  # built already, so every stage below is the count's
    stages = []
    real = sepekr.core.seconds_left

    def recorded(deadline, stage):
        if stage.startswith("the edge count"):
            stages.append((deadline is not None, stage))
        return real(deadline, stage)

    monkeypatch.setattr(sepekr.core, "seconds_left", recorded)
    monkeypatch.setattr(sepekr.core, "_EDGE_COUNT_BLOCK", 8)
    count(graph, time.monotonic() + 60)
    assert stages == [(True, f"the edge count at row {row}") for row in (1, 9, 17, 25)]
    assert graph.num_edges == 138 == sum(1 for a, b in combinations(graph.masks, 2) if not a & b)
    capsys.readouterr()


def test_a_passed_deadline_stops_the_edge_count_and_keeps_nothing():
    sepekr.core._universe.cache_clear()
    graph = build_schrijver(9, 3, 1)
    graph.reversed_rows(None)
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before the edge count at row 1$"):
        graph.edge_count(time.monotonic() - 1)
    assert "_edge_count" not in kept_by_name(graph)
    assert graph.edge_count() == 138
    assert kept_by_name(graph)["_edge_count"] == 138
