"""Exact maximum intersecting families via branch-and-bound over disjointness graphs.

Vertices are the k-separated r-sets of a circle; two vertices clash when the
sets are disjoint, so intersecting families are exactly the independent sets.
One depth-first branch-and-bound core serves two modes: optimise (the
maximum weight) and enumerate (every independent set of a given size).  It
uses Python-int bitsets for adjacency rows and candidate sets, a greedy
clique-cover upper bound whose clique classes are built bit-parallel, as in
BBMC (San Segundo et al., 2011), and deterministic branching, so repeated runs
return identical answers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .core import (
    DEFAULT_MAX_VERTICES,
    CircSet,
    SetFamily,
    dihedral_images,
    seconds_left,
    separated_universe,
)
from .families import canonical_form

CLASS_MAX_VERTICES = 2000

_TIME_CHECK_MASK = 0x3FF


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exact search: the optimum, one witness, and optional class census."""

    n: int
    r: int
    k: int
    optimum: int
    witness: SetFamily
    classes: tuple[SetFamily, ...] | None
    nodes_explored: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "optimum": self.optimum,
            "witness": [list(s.elems) for s in self.witness.sets],
            "classes": None
            if self.classes is None
            else [[list(s.elems) for s in c.sets] for c in self.classes],
            "nodes": self.nodes_explored,
        }


def _cover_bound(cand: int, adj: Sequence[int], weights: list[int] | None) -> int:
    """Greedy partition of cand into cliques; an independent set takes at most one per clique.

    Each class is built bit-parallel from the lowest remaining vertex, keeping
    the vertices adjacent to every member so far: the first-fit partition in
    index order.  Returns the clique count, or with (non-negative) weights the
    sum of per-clique maxima.
    """
    bound = 0
    while cand:
        q = cand
        top = 0 if weights is not None else 1
        while q:
            b = q & -q
            v = b.bit_length() - 1
            cand ^= b
            q &= adj[v]
            if weights is not None and weights[v] > top:
                top = weights[v]
        bound += top
    return bound


def _pick_branch_vertex(cand: int, adj: Sequence[int]) -> int:
    """Candidate with the most conflicts inside cand; ties go to the lowest index."""
    best_v = -1
    best_deg = -1
    rem = cand
    while rem:
        b = rem & -rem
        v = b.bit_length() - 1
        rem ^= b
        deg = (adj[v] & cand).bit_count()
        if deg > best_deg:
            best_deg = deg
            best_v = v
    return best_v


def _search(
    adj: Sequence[int],
    weights: list[int] | None,
    target: int | None,
    time_limit: float | None,
) -> tuple[int, int, int, list[int]]:
    """The one branch-and-bound DFS behind both search modes.

    With target None it optimises: floor is the best weight found so far.
    Otherwise it enumerates: floor stays at target - 1 and every set of
    exactly target vertices is collected.  Returns (floor, best mask, nodes
    explored, collected masks).
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    nodes = 0
    floor = 0 if target is None else target - 1
    best_mask = 0
    found: list[int] = []
    stack = [((1 << len(adj)) - 1, 0, 0)]
    while stack:
        cand, cur, mask = stack.pop()
        nodes += 1
        if nodes & _TIME_CHECK_MASK == 0:
            seconds_left(deadline, f"node {nodes}")
        if cur > floor:
            if target is None:
                floor, best_mask = cur, mask
            elif cur == target:
                found.append(mask)
                continue
        if not cand or cur + _cover_bound(cand, adj, weights) <= floor:
            continue
        v = _pick_branch_vertex(cand, adj)
        b = 1 << v
        stack.append((cand & ~b, cur, mask))
        w = 1 if weights is None else weights[v]
        stack.append((cand & ~adj[v] & ~b, cur + w, mask | b))
    return floor, best_mask, nodes, found


def solve_max_independent(
    adj: Sequence[int],
    weights: list[int] | None = None,
    *,
    time_limit: float | None = None,
) -> tuple[int, int, int]:
    """Maximum(-weight) independent set; returns (optimum, vertex bitmask, nodes explored)."""
    return _search(adj, weights, None, time_limit)[:3]


def enumerate_max_independent(
    adj: Sequence[int],
    target: int,
    *,
    time_limit: float | None = None,
) -> tuple[list[int], int]:
    """All independent sets of exactly target vertices, where target is the independence number.

    Each qualifying set is emitted exactly once as a bitmask; the include or
    exclude branching visits every subset along a unique path.
    """
    _, _, nodes, found = _search(adj, None, target, time_limit)
    return found, nodes


def _solve(n, r, k, weight_fn, max_vertices, time_limit) -> SearchResult:
    """The path from universe to solve behind both max_intersecting functions."""
    graph = separated_universe(n, r, k, max_vertices)
    weights = None if weight_fn is None else [weight_fn(s) for s in graph.vertices]
    for s, w in zip(graph.vertices, weights or ()):
        if not isinstance(w, int) or w < 0:
            raise ValueError(f"weight of {s} must be a non-negative integer, got {w!r}")
    optimum, mask, nodes = solve_max_independent(graph.adjacency, weights, time_limit=time_limit)
    return SearchResult(n, r, k, optimum, graph.subfamily(mask), None, nodes)


def max_intersecting(
    n: int,
    r: int,
    k: int,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    time_limit: float | None = None,
) -> SearchResult:
    """Exact maximum size of an intersecting family of k-separated r-sets in [n].

    The witness is returned in canonical form; repeated runs are identical.
    One time limit covers the solve and the canonicalisation of the witness.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    result = _solve(n, r, k, None, max_vertices, seconds_left(deadline, "the solve"))
    seconds_left(deadline, "canonicalising the witness")
    return replace(result, witness=canonical_form(result.witness))


def max_intersecting_weighted(
    n: int,
    r: int,
    k: int,
    weight_fn: Callable[[CircSet], int],
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    time_limit: float | None = None,
) -> SearchResult:
    """Exact maximum total weight of an intersecting family under a non-negative integer weight.

    The witness is one optimal family as found; it is not canonicalised because
    an arbitrary weight function need not respect the circle symmetries.
    """
    return _solve(n, r, k, weight_fn, max_vertices, time_limit)


def _image(mask: int, perm: list[int]) -> int:
    out = 0
    while mask:
        b = mask & -mask
        out |= 1 << perm[b.bit_length() - 1]
        mask ^= b
    return out


def extremal_classes(
    n: int,
    r: int,
    k: int,
    *,
    rotations_only: bool = False,
    max_vertices: int = CLASS_MAX_VERTICES,
    time_limit: float | None = None,
) -> SearchResult:
    """All maximum intersecting families, reported as one representative per symmetry class.

    Representatives are canonical forms sorted lexicographically; the witness
    is the least of them.  Every image of an optimum is an optimum, so each
    class is canonicalised once and its whole orbit marked as seen.  One time
    limit covers the whole call: the solve, the enumeration of all optima and
    their canonicalisation.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    graph = separated_universe(n, r, k, max_vertices)
    adj = graph.adjacency
    optimum, _, nodes_opt = solve_max_independent(
        adj, time_limit=seconds_left(deadline, "the solve")
    )
    masks, nodes_enum = enumerate_max_independent(
        adj, optimum, time_limit=seconds_left(deadline, "enumerating the optima")
    )
    vertex_masks = [s.mask for s in graph.vertices.sets]
    index = {m: i for i, m in enumerate(vertex_masks)}
    images = dihedral_images(vertex_masks, n, rotations_only)
    perms = [[index[m] for m in image] for image in images]
    seen: set[int] = set()
    reps = []
    for mask in masks:
        seconds_left(deadline, "canonicalising the optima")
        if mask in seen:
            continue
        reps.append(canonical_form(graph.subfamily(mask), rotations_only))
        seen.update(_image(mask, perm) for perm in perms)
    classes = tuple(sorted(reps, key=lambda f: tuple(s.elems for s in f.sets)))
    return SearchResult(
        n, r, k, optimum, classes[0], classes, nodes_opt + nodes_enum
    )
