"""Intersecting families of separated sets: canonical examples, isomorphism, bijections."""

from __future__ import annotations

import random

from .core import (
    DEFAULT_MAX_VERTICES,
    CircSet,
    SetFamily,
    dihedral_images,
    disjoint_pairs,
    is_k_separated,
    mask_elems,
    reflect,
    rotate,
    separated_universe,
)


def is_intersecting(family: SetFamily) -> bool:
    """True when every two members share an element.  Empty and singleton families qualify."""
    return next(disjoint_pairs([s.mask for s in family.sets]), None) is None


def star_family(
    n: int, r: int, k: int, i: int, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> SetFamily:
    """All k-separated r-sets through the fixed element i."""
    if not (1 <= i <= n):
        raise ValueError(f"centre {i} outside 1..{n}")
    graph = separated_universe(n, r, k, max_vertices)
    bit = 1 << (i - 1)
    return graph.subfamily(sum(1 << v for v, m in enumerate(graph.masks) if m & bit))


def exceptional_family(r: int, i: int) -> SetFamily:
    """The i-th exceptional maximum intersecting family of separated r-sets on 2r+2 points.

    Members are the separated r-sets meeting {1, 3, ..., 4i+1} in at least
    i+1 elements, a strict majority of that window.  Defined for
    1 <= i <= r // 2; matches the star bound in size without being a star.
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got r={r}")
    if not (1 <= i <= r // 2):
        raise ValueError(f"index {i} outside 1..{r // 2}")
    n = 2 * r + 2
    window = 0
    for a in range(1, 4 * i + 2, 2):
        window |= 1 << (a - 1)
    graph = separated_universe(n, r, 1, DEFAULT_MAX_VERTICES)
    return graph.subfamily(
        sum(1 << v for v, m in enumerate(graph.masks) if (m & window).bit_count() >= i + 1)
    )


def transform_family(family: SetFamily, shift: int = 0, reflected: bool = False) -> SetFamily:
    """Apply a circle symmetry (optional reflection, then rotation) to every member."""
    members = (rotate(reflect(s) if reflected else s, shift) for s in family.sets)
    return SetFamily(family.n, family.r, family.k, tuple(members))


def canonical_form(family: SetFamily, rotations_only: bool = False) -> SetFamily:
    """Lexicographically least image of the family under the circle symmetries.

    The full dihedral group is used unless rotations_only is set.  Families are
    compared as sorted tuples of member element tuples, so equal canonical
    forms is exactly isomorphism under the chosen group.
    """
    n = family.n
    images = dihedral_images([s.mask for s in family.sets], n, rotations_only)
    least = min(sorted(map(mask_elems, image)) for image in images)
    return SetFamily(n, family.r, family.k, tuple(CircSet(n, elems) for elems in least))


def are_isomorphic(f: SetFamily, g: SetFamily, rotations_only: bool = False) -> bool:
    """Whether some rotation (optionally with a reflection) maps f onto g."""
    if (f.n, f.r, f.k) != (g.n, g.r, g.k):
        raise ValueError(
            f"parameter mismatch: ({f.n},{f.r},{f.k}) vs ({g.n},{g.r},{g.k})"
        )
    return canonical_form(f, rotations_only) == canonical_form(g, rotations_only)


def exchange_map(a: CircSet, k: int) -> CircSet:
    """Disjoint partner of a set through 1 avoiding k+2: swap 1 for k+2 and push the rest by k.

    Pairs the k-separated r-sets containing 1 but not k+2 with those containing
    k+2 but not 1; the image never meets its argument.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if not is_k_separated(a, k):
        raise ValueError(f"{a} is not {k}-separated in [{a.n}]")
    if 1 not in a or (k + 2) in a:
        raise ValueError(f"{a} must contain 1 and avoid {k + 2}")
    elems = (k + 2,) + tuple(x + k for x in a.elems[1:])
    return CircSet(a.n, elems)


def random_maximal_intersecting(
    n: int, r: int, k: int, rng: random.Random
) -> SetFamily:
    """Greedily grow an intersecting family over a shuffled universe until maximal."""
    graph = separated_universe(n, r, k, DEFAULT_MAX_VERTICES)
    order = list(range(graph.num_vertices))
    rng.shuffle(order)
    adjacency, chosen = graph.adjacency, 0
    for idx in order:
        if not adjacency[idx] & chosen:
            chosen |= 1 << idx
    return graph.subfamily(chosen)
