"""Disjointness graphs of set families: Kneser and Schrijver instances, exact invariants."""

from __future__ import annotations

import time

from .core import (
    DEFAULT_MAX_VERTICES, DisjointnessGraph, ResourceLimitError, mask_elems, seconds_left,
    separated_universe,
)
from .search import solve_max_independent

COLORING_MAX_VERTICES = 64


def build_kneser(n: int, r: int, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> DisjointnessGraph:
    """Kneser graph: all r-subsets of [n], edges between disjoint pairs."""
    return separated_universe(n, r, 0, max_vertices)


def build_schrijver(
    n: int, r: int, k: int = 1, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> DisjointnessGraph:
    """Induced subgraph of the Kneser graph on the k-separated r-sets."""
    return separated_universe(n, r, k, max_vertices)


def independence_number(
    graph: DisjointnessGraph,
    *,
    time_limit: float | None = None,
) -> int:
    """Exact independence number via the branch-and-bound solver."""
    return solve_max_independent(graph.adjacency, time_limit=time_limit)[0]


def _colorable(
    adj: tuple[int, ...], colors_allowed: int, clique: list[int], deadline: float | None
) -> bool:
    """Backtracking c-colorability with the clique pre-coloured and fresh-colour symmetry breaking.

    Each step colours the DSATUR vertex (Brélaz, "New methods to color the
    vertices of a graph", 1979): most distinct neighbour colours, then highest
    degree, then lowest index, trying the lowest colour first.  A state is
    (uncoloured vertices, levels, near, top colour used) in int bitsets:
    levels[s] holds the uncoloured vertices with exactly s distinct neighbour
    colours, and near[c] the vertices next to colour c.  No vertex sees more
    colours than top + 1.  The DSATUR vertex is the lowest bit where the
    highest non-empty level meets the first degree class that meets it.
    Raises ResourceLimitError once no seconds are left before deadline (None: no deadline).
    """
    degrees = [row.bit_count() for row in adj]
    by_degree = [
        sum(1 << v for v, d in enumerate(degrees) if d == degree)
        for degree in sorted(set(degrees), reverse=True)
    ]
    left = (1 << len(adj)) - 1
    for v in clique:
        left &= ~(1 << v)
    levels = [left] + [0] * colors_allowed
    near = [0] * colors_allowed
    for color, v in enumerate(clique):
        near[color] = moved = adj[v] & left
        levels = [hi & ~moved | lo & moved for lo, hi in zip([0, *levels], levels)]
    steps = 0
    stack = [(left, levels, near, len(clique) - 1)]
    while stack:
        left, levels, near, top = stack.pop()
        if not left:
            return True
        steps += 1
        if deadline is not None:
            seconds_left(deadline, f"colouring step {steps}")
        saturation = top + 1
        while not levels[saturation]:
            saturation -= 1
        tied = levels[saturation]
        for group in by_degree:
            first = tied & group
            if first:
                break
        bit = first & -first
        rest = left ^ bit
        row = adj[bit.bit_length() - 1] & rest
        for color in range(min(colors_allowed - 1, top + 1), -1, -1):
            if not near[color] & bit:
                moved = row & ~near[color]
                kept = ~(moved | bit)
                child_near = near[:]
                child_near[color] |= row
                child_levels = [hi & kept | lo & moved for lo, hi in zip([0, *levels], levels)]
                stack.append((rest, child_levels, child_near, max(top, color)))
    return False


def chromatic_number(graph: DisjointnessGraph, *, time_limit: float | None = None) -> int:
    """Exact chromatic number by iterative deepening from a maximum clique.

    The clique is a maximum independent set of the complement, found by the
    search core.  Raises ResourceLimitError above COLORING_MAX_VERTICES, or
    once time_limit seconds have passed.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    v_count = graph.num_vertices
    if v_count > COLORING_MAX_VERTICES:
        raise ResourceLimitError(
            f"{v_count} vertices exceed the colouring limit of {COLORING_MAX_VERTICES}"
        )
    adj = graph.adjacency
    full = (1 << v_count) - 1
    complement = [full & ~row & ~(1 << v) for v, row in enumerate(adj)]
    _, mask, _ = solve_max_independent(
        complement, time_limit=seconds_left(deadline, "the clique search")
    )
    clique = [e - 1 for e in mask_elems(mask)]
    seconds_left(deadline, "the colouring")
    for c in range(len(clique), v_count + 1):
        if _colorable(adj, c, clique, deadline):
            return c
    raise AssertionError("a graph is always colourable with one colour per vertex")


def export_dimacs(graph: DisjointnessGraph, destination, *, deadline: float | None = None) -> None:
    """Write the graph in DIMACS format: 'p edge V E' then 'e u v' lines with 1-based u < v.

    With a time.monotonic() deadline, it is read once per adjacency row while
    the edges are listed, and nothing is written when it passes.
    """
    lines = [f"p edge {graph.num_vertices} {graph.num_edges}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in graph.edges(deadline))
    text = "\n".join(lines) + "\n"
    if isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__"):
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        destination.write(text)
