"""Intersecting families of separated sets: the intersecting check, stars, random maximal families."""

from __future__ import annotations

import random

from .core import (
    DEFAULT_MAX_VERTICES,
    SetFamily,
    disjointness_rows,
    mirror_mask,
    row_edges,
    seconds_left,
    separated_universe,
)


def is_intersecting(family: SetFamily) -> bool:
    """True when every two members share an element.  Empty and singleton families qualify."""
    return next(row_edges(disjointness_rows([s.mask for s in family.sets])), None) is None


def star_family(
    n: int,
    r: int,
    k: int,
    i: int,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    deadline: float | None = None,
) -> SetFamily:
    """All k-separated r-sets through the fixed element i.

    A time.monotonic() deadline is read while the universe is built and
    before the star's members are.
    """
    if not (1 <= i <= n):
        raise ValueError(f"centre {i} outside 1..{n}")
    graph = separated_universe(n, r, k, max_vertices, deadline)
    seconds_left(deadline, "the star's members")
    bit = 1 << (i - 1)
    return graph.subfamily(sum(1 << v for v, m in enumerate(graph.masks) if m & bit))


def random_maximal_intersecting(
    n: int, r: int, k: int, rng: random.Random, *, deadline: float | None = None
) -> SetFamily:
    """Greedily grow an intersecting family over a shuffled universe until maximal.

    The greedy runs on the universe's one row set, in the search's labels
    (reversed_rows): the shuffle permutes positions whatever they hold, so
    shuffling the labels V - 1 .. 0 visits the members in the same order as
    shuffling the vertices 0 .. V - 1, and the chosen labels are mirrored
    back to vertices at the end.  A time.monotonic() deadline is read while
    the universe is enumerated and once per adjacency row while the rows
    are built.
    """
    graph = separated_universe(n, r, k, DEFAULT_MAX_VERTICES, deadline)
    size = graph.num_vertices
    order = list(range(size - 1, -1, -1))
    rng.shuffle(order)
    rows, chosen = graph.reversed_rows(deadline), 0
    for idx in order:
        if not rows[idx] & chosen:
            chosen |= 1 << idx
    return graph.subfamily(mirror_mask(chosen, size))
