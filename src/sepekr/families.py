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
    """Greedily grow an intersecting family over a uniform random order of the universe until maximal.

    The order is drawn as keys: one rng.random() per vertex, in vertex
    (lexicographic) order, and the vertices are visited in increasing key
    order, ties to the lower vertex.  Independent uniform keys make every
    order equally likely, as random.shuffle does, so the families have the
    distribution they had when a shuffle drew the order, but a seed draws
    other families than it did then.  Only random() is called on rng: its
    sequence for a seed is the one Python's random module keeps across
    versions.  The greedy runs on the universe's one row set, in the
    search's labels (reversed_rows), where vertex i is label V - 1 - i: the
    keys are reversed into label order, the labels sorted from V - 1 down
    (so that the stable sort sends ties to the lower vertex), and the chosen
    labels mirrored back to vertices at the end.  A time.monotonic()
    deadline is read while the universe is enumerated and once per
    adjacency row while the rows are built.
    """
    graph = separated_universe(n, r, k, DEFAULT_MAX_VERTICES, deadline)
    size = graph.num_vertices
    keys = [rng.random() for _ in range(size)]
    keys.reverse()
    rows, chosen = graph.reversed_rows(deadline), 0
    for idx in sorted(range(size - 1, -1, -1), key=keys.__getitem__):
        if not rows[idx] & chosen:
            chosen |= 1 << idx
    return graph.subfamily(mirror_mask(chosen, size))
