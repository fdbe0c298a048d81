"""Exact maximum intersecting families via branch-and-bound over disjointness graphs.

Vertices are the k-separated r-sets of a circle; two vertices clash when the
sets are disjoint, so intersecting families are exactly the independent sets.
One depth-first branch-and-bound core serves two modes: optimise (the
maximum weight) and enumerate (the independent sets of the largest size, from
a lower bound on it).  It uses Python-int bitsets for adjacency rows and
candidate sets, a greedy clique-cover upper bound whose clique classes are
built bit-parallel, as in BBMC (San Segundo et al., 2011), and deterministic
branching, so repeated runs return identical answers.  The core works on
bit-reversed labels, vertex i at bit V - 1 - i, so that the cover walk finds
the lowest index as the highest bit with one bit_length; it keeps the walk's
classes, bound, branch vertex and node counts, and translates its answers
back.  A universe's searches read the one row set it keeps in these labels
(`DisjointnessGraph.reversed_rows`); `solve_max_independent` and
`enumerate_max_independent` reverse an arbitrary adj once per call.  A
universe's solve (`_universe_solve`, behind `max_intersecting` and a
universe's `independence_number`) starts from the star as a checked
incumbent and from an orbit chain of the circle's symmetry, and branches
orbitally below it (Ostrowski et al., 2011).  `extremal_classes`
is one enumeration from the star's size on the same chain, so it meets at
least one optimum per class rather than all of them.  Each class, and each
witness, is represented by the least image of its vertex mask under the
group, which is the lexicographically least image of the family because
vertex indices follow the lexicographic member order.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import (
    DEFAULT_MAX_VERTICES,
    CircSet,
    DisjointnessGraph,
    SetFamily,
    mask_elems,
    mirror_mask,
    rotate_mask,
    seconds_left,
    separated_universe,
)

CLASS_MAX_VERTICES = 2000


class SearchResult(NamedTuple):
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


def _cover_bound(
    cand: int, adj: Sequence[int], weights: list[int] | None, bits: Sequence[int]
) -> tuple[int, int]:
    """Greedy partition of cand into cliques, and the branch vertex, from one walk of cand.

    The labels are the search's flipped ones (`_search`): vertex i of the
    graph is bit size - 1 - i, so its lowest index is the highest bit, and
    bits[v] is 1 << v.  Each class is built bit-parallel from the highest
    remaining bit, keeping the vertices adjacent to every member so far: the
    first-fit partition in index order.  A step reads the highest bit with
    one bit_length and drops it with one XOR against bits, where a walk from
    the lowest bit also needs a negation and an AND.  An independent set
    takes at most one vertex per clique, so the bound is the clique count,
    or with (non-negative) weights the sum of per-clique maxima.  Returns
    (bound, v), where v is the candidate with the most conflicts inside
    cand, ties to the highest bit, the lowest index (the walk is not in
    index order), or -1 when cand is empty.  On an independent cand every
    class is one vertex and every degree 0, so the walk returns the vertex
    count (the weight sum) and the highest bit; `_search` closes the
    subtree of such a node in one step.
    """
    bound = 0
    best_v = best_deg = -1
    rem = cand
    # The highest-bit loop stays inline, not mask_elems: it runs at every node.
    while rem:
        q = rem
        top = 0 if weights is not None else 1
        while q:
            v = q.bit_length() - 1
            rem ^= bits[v]
            row = adj[v]
            q &= row
            deg = (row & cand).bit_count()
            if deg > best_deg or deg == best_deg and v > best_v:
                best_deg, best_v = deg, v
            if weights is not None and weights[v] > top:
                top = weights[v]
        bound += top
    return bound, best_v


def _value_planes(weights: Sequence[int]) -> list[tuple[int, int]]:
    """At most 8 bit planes of the weights, rounded up, in the search's labels, each with its shift.

    With top the largest weight and s = max(0, bit_length(top) - 8), each
    weight w is rounded up to ceil(w / 2^s), one more bit of s if that
    reaches 2^8, so every rounded weight has at most 8 bits.  Plane j holds
    the vertices whose rounded weight has bit j, vertex i at bit V - 1 - i,
    and comes with the shift j + s.  For any mask, the sum over the planes
    of popcount(plane & mask) << shift is at least the mask's weight sum,
    and equals it when s is 0 or every weight is a multiple of 2^s.  Each
    plane is one int(bits, 2) of a V-character string.
    """
    top = max(weights, default=0)
    s = max(0, top.bit_length() - 8)
    if -(-top >> s) == 1 << 8:
        s += 1
    rounded = [-(-w >> s) for w in weights]
    return [
        (int("".join(["1" if q >> j & 1 else "0" for q in rounded]), 2), j + s)
        for j in range(max(rounded, default=0).bit_length())
    ]


def _orbit_chain(size: int, perms: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The roots of the orbit chain: (lowest vertex, vertices of the earlier orbits) per orbit.

    Orbits come in order of their lowest vertex, and each orbit is built when
    its root is reached.  perms must hold every element of the group (as
    `_vertex_permutations` builds it), not just generators: the orbit of v is
    then {p[v] for p in perms}.
    """
    chain, excluded = [], 0
    for v in range(size):
        if not excluded >> v & 1:
            chain.append((v, excluded))
            for perm in perms:
                excluded |= 1 << perm[v]
    return chain


def _stabiliser(group: Sequence[Sequence[int]], v: int) -> list[Sequence[int]] | None:
    """The permutations of group that fix vertex v, or None when only the identity is left."""
    kept = [perm for perm in group if perm[v] == v]
    return kept if len(kept) > 1 else None


def _search(
    rows: Sequence[int],
    weights: list[int] | None,
    target: int | None,
    deadline: float | None,
    perms: Sequence[Sequence[int]] | None = None,
    incumbent: int = 0,
    stop_at: int | None = None,
) -> tuple[int, int, int, list[int]]:
    """The one branch-and-bound DFS behind both search modes.

    With target None it optimises: floor is the best weight found so far,
    starting at the weight of the incumbent, which must be an independent
    set.  Otherwise (with weights None) it enumerates: floor starts at
    target - 1 and rises to one less than the largest set met, and the sets
    of exactly floor + 1 vertices are collected.  A maximum set has no
    candidates left, so with target the optimum its node ends as a leaf.
    Returns (floor, best mask, nodes explored, collected masks).

    The DFS runs on flipped labels: vertex i of the graph is bit last - i of
    every row, candidate set and mask, where last = V - 1 for V vertices.
    The lowest index is then the highest bit, which `_cover_bound` reads
    with one bit_length.  rows come in these labels: rows[last - i] is
    vertex i's row, bit-reversed (`DisjointnessGraph.reversed_rows`, or
    `_reversed` of an arbitrary adj).  Everything else is in the graph's
    labels: the weights are reversed on entry, the incumbent and the roots
    are mirrored (`mirror_mask`) on entry, the best mask and the collected
    masks back on exit, and perms are read as last - perm[last - v].
    bits[v] = 1 << v is built once per call, about V*V/16 bytes.

    With perms, a group of automorphisms of the graph (and of the weights),
    the search starts from the orbit chain instead of the single full root:
    the i-th root includes the lowest vertex of orbit i and excludes every
    vertex of the earlier orbits.  Every nonempty set has an image in some
    root: if orbit i is the first one it meets, a symmetry moves its member
    in orbit i onto that lowest vertex, and orbits are invariant, so the
    image still avoids the earlier orbits.

    Below the roots the search branches orbitally (Ostrowski et al., 2011).
    Each node carries H, the permutations of perms that fix every vertex it
    includes (None once only the identity is left), and its candidates are a
    union of H-orbits.  Branching on v, the include child gets H's
    stabiliser of v, and the exclude child drops the whole H-orbit of v and
    keeps H.  This loses no class of sets: a set in the node's subtree that
    meets the orbit at p[v], p in H, has the image under p's inverse, which
    fixes the included vertices, keeps the candidates, contains v and so lies
    in the include child.  So the optimum is unchanged, and every orbit of
    maximum sets has at least one member collected; the include and exclude
    children still split their parent, so no set is collected twice.

    A node whose branch vertex, the candidate with the most conflicts, has
    none is free: its candidates C are independent, and it closes its
    subtree in one step, with the answer, the node count and (in enumerate
    mode) the collected sets of the walk.  Below a free node every walk
    returns the candidate count (or weight sum) and the lowest candidate, so
    the search includes C's vertices in index order, and along that path cur
    plus the bound stays cur + W(C).  With weights the path stops at the
    last candidate of positive weight, at position p (p = |C| without
    weights), where the floor reaches cur + W(C) and the node is pruned or a
    leaf.  The exclude child of the path's i-th node has at most the
    candidates after position i, so a bound no higher than that final floor
    (one less than it without weights), and is pruned.  So the subtree has
    exactly 2p nodes, and leaves the floor and the best mask (mask and C's
    first p vertices) as the walk does.  In enumerate mode, where the weights
    must be None, the walk ends with floor at least cur + |C| - 1 and the
    sets of that floor reset by any larger one, then mask | C collected; it
    collects nothing else, and the subtree is done before anything else is
    popped, so the collected order is the walk's too.  The deadline is read
    once for the closed subtree.

    Before the walk, a node is pruned when cur plus its candidates' value
    sum W is at most the floor: the candidate count without weights, and
    with them the popcounts of `_value_planes`.  This is exact.  The walk's
    bound sums one value per class, and the classes partition the
    candidates, so it never exceeds W; every node this check prunes, the
    walk would prune too, and a node it keeps is walked as before.  Floors,
    best masks, collected sets and their order, branch vertices and node
    counts are those of a walk at every node; only walks are skipped.  The
    planes round each weight up to at most 8 bits, so the sum is still at
    least W and a weight of 200 bits costs what its top 8 bits cost; they
    are built once per call, at most 8 planes of V bits, about 8*V/8 bytes.

    In optimise mode a stop_at returns as soon as the floor reaches it: the
    incumbent's weight, a node's, or the close of a free subtree, whose nodes
    all count.  It is read only where the floor rises, so a search without
    it pays nothing per node.  The floor rises only past its old value, so
    the best mask is the first set met of its weight, and a stop_at of the
    optimum returns the same optimum and mask as the whole search; one above
    the optimum never fires.
    """
    nodes = 0
    size = len(rows)
    last = size - 1
    if incumbent >> size:
        raise ValueError("incumbent is not an independent set of the graph")
    best_mask = mirror_mask(incumbent, size)
    members = [e - 1 for e in mask_elems(best_mask)]
    if any(rows[v] & best_mask for v in members):
        raise ValueError("incumbent is not an independent set of the graph")
    bits = [1 << v for v in range(size)]
    flipped_weights = None if weights is None else weights[::-1]
    value = [1] * size if flipped_weights is None else flipped_weights
    planes = None if weights is None else _value_planes(weights)
    floor = sum(value[v] for v in members) if target is None else target - 1
    if stop_at is not None and floor >= stop_at:
        return floor, incumbent, nodes, []
    found: list[int] = []
    full = (1 << size) - 1
    if perms is None:
        stack = [(full, 0, 0, None)]
    else:
        stack = [
            (
                full & ~mirror_mask(excluded, size) & ~rows[last - v] & ~bits[last - v],
                value[last - v],
                bits[last - v],
                _stabiliser(perms, v),
            )
            for v, excluded in reversed(_orbit_chain(size, perms))
        ]
    while stack:
        cand, cur, mask, group = stack.pop()
        nodes += 1
        if deadline is not None:
            seconds_left(deadline, f"node {nodes}")
        if cur > floor:
            if target is None:
                floor, best_mask = cur, mask
                if stop_at is not None and floor >= stop_at:
                    break
            else:
                if cur > floor + 1:
                    floor, found = cur - 1, []
                found.append(mask)
        if not cand:
            continue
        # The value sum bounds the cover's bound: a node it prunes, the walk would prune too.
        if planes is None:
            if cur + cand.bit_count() <= floor:
                continue
        else:
            total = cur
            for plane, shift in planes:
                total += (plane & cand).bit_count() << shift
            if total <= floor:
                continue
        # The cover gets weights, not value: its weights=None path counts classes faster.
        bound, v = _cover_bound(cand, rows, flipped_weights, bits)
        if cur + bound <= floor:
            continue
        row = rows[v]
        if not row & cand:
            # Free: the walk's subtree in one step, its path ending at the last positive weight.
            if target is None:
                if flipped_weights is not None:
                    # The last candidate in index order of positive weight is the lowest such bit.
                    first = next(e - 1 for e in mask_elems(cand) if flipped_weights[e - 1])
                    cand = cand >> first << first
                floor, best_mask = cur + bound, mask | cand
            else:
                if cur + bound > floor + 1:
                    floor, found = cur + bound - 1, []
                found.append(mask | cand)
            nodes += 2 * cand.bit_count()
            if stop_at is not None and floor >= stop_at:
                break
            continue
        b = orbit = bits[v]
        stabiliser = None
        if group is not None:
            for perm in group:
                orbit |= bits[last - perm[last - v]]
            stabiliser = _stabiliser(group, last - v)
        stack.append((cand & ~orbit, cur, mask, group))
        stack.append((cand & ~row & ~b, cur + value[v], mask | b, stabiliser))
    return floor, mirror_mask(best_mask, size), nodes, [mirror_mask(m, size) for m in found]


def _reversed(adj: Sequence[int], deadline: float | None) -> list[int]:
    """adj in the search's labels: each row bit-reversed, listed last vertex first.

    A time.monotonic() deadline is read before each row, in vertex order.
    """
    size = len(adj)
    rows = []
    for i, row in enumerate(adj):
        if deadline is not None:
            seconds_left(deadline, f"the reversed row of vertex {i + 1}")
        rows.append(mirror_mask(row, size))
    rows.reverse()
    return rows


def solve_max_independent(
    adj: Sequence[int],
    weights: list[int] | None = None,
    *,
    deadline: float | None = None,
    perms: Sequence[Sequence[int]] | None = None,
    incumbent: int = 0,
    stop_at: int | None = None,
) -> tuple[int, int, int]:
    """Maximum(-weight) independent set; returns (optimum, vertex bitmask, nodes explored).

    perms, every element of a group of automorphisms that also preserves the
    weights, lets the search start from an orbit chain and branch orbitally
    below it (see `_search`).  An
    incumbent mask, checked to be independent (ValueError otherwise), is the
    starting best: the search only looks for something heavier, and returns
    the incumbent when nothing is.  stop_at ends the search as soon as it
    holds a set of at least that weight; with the optimum as stop_at (proved
    by another search, say) that is the optimum and mask the whole search
    returns, in fewer nodes (see `_search`).  adj is reversed into the
    search's labels once per call, which takes about V*V/8 bytes while it
    runs.  A deadline, a time.monotonic() value, is read before each row is
    reversed and at every node visited; a subtree closed in one step (see
    `_search`) reads it once and counts all its nodes.  ResourceLimitError
    once it passes.
    """
    return _search(_reversed(adj, deadline), weights, None, deadline, perms, incumbent, stop_at)[:3]


def enumerate_max_independent(
    adj: Sequence[int],
    target: int,
    *,
    deadline: float | None = None,
    perms: Sequence[Sequence[int]] | None = None,
) -> tuple[list[int], int]:
    """The maximum independent sets, where target is a lower bound on the independence number.

    The search raises its floor past target as it meets larger sets, so any
    target from 0 to the independence number gives the same sets, and a
    target above it gives none.  Without perms, every maximum set is emitted
    exactly once as a bitmask; the include or exclude branching visits every
    subset along a unique path.  With perms (every element of an automorphism
    group), the search starts from an orbit chain and returns at least one
    set per orbit of the group, not all of them; each set still at most once.
    adj is reversed once per call, and a time.monotonic() deadline is read
    before each row is reversed and at every node visited, as in
    `solve_max_independent`; ResourceLimitError once it passes.
    """
    _, _, nodes, found = _search(_reversed(adj, deadline), None, target, deadline, perms)
    return found, nodes


def _vertex_permutations(graph: DisjointnessGraph, deadline: float | None = None) -> list[tuple[int, ...]]:
    """The circle's symmetries as permutations of the vertices: perm[i] is the image of vertex i.

    Only the two generators move masks: one step (a -> a + 1) and the mirror.
    Rotation s is rotation s - 1 followed by the step, and reflection s is
    the mirror followed by rotation s, so the list is the n rotations (s =
    0..n-1) and then the n reflections; the rotation group is its first n.
    Each is composed from an earlier one by one itemgetter over the
    generator's images, at C speed.  This is the package's one list of the
    circle group.  The 2n tuples take about 16 n V bytes for V vertices; a
    time.monotonic() deadline is read before each one after the identity.
    """
    n, vertex_masks = graph.n, graph.masks
    size = len(vertex_masks)
    if size == 1:  # itemgetter of one index returns the item, not a 1-tuple
        return [(0,)] * (2 * n)
    index = {m: i for i, m in enumerate(vertex_masks)}
    # rotations commute, so step after rotation s - 1 is rotation s - 1 read at the step's images
    step = itemgetter(*[index[rotate_mask(m, n, 1)] for m in vertex_masks])
    mirror = itemgetter(*[index[mirror_mask(m, n)] for m in vertex_masks])
    perms = [tuple(range(size))]
    for i in range(1, 2 * n):
        if deadline is not None:
            seconds_left(deadline, f"symmetry {i + 1} of {2 * n}")
        perms.append(step(perms[-1]) if i < n else mirror(perms[i - n]))
    return perms


def _orbit(mask: int, perms: Sequence[Sequence[int]]) -> list[int]:
    """The images of a vertex mask under perms, in their order; its vertices are decoded once."""
    vertices = [e - 1 for e in mask_elems(mask)]
    return [sum(1 << perm[v] for v in vertices) for perm in perms]


def _least(masks: Iterable[int]) -> int:
    """The lexicographically least of nonempty masks of one size, its elements never listed.

    Two such masks first differ at the lowest bit of their XOR, and the one
    holding that element is the lesser.
    """
    it = iter(masks)
    least = next(it)
    for m in it:
        diff = m ^ least
        if diff & -diff & m:
            least = m
    return least


def _star_mask(graph: DisjointnessGraph) -> int:
    """The vertices holding element 1: the star, intersecting and of the star bound's size."""
    return sum(1 << i for i, m in enumerate(graph.masks) if m & 1)


def _universe_solve(
    graph: DisjointnessGraph, deadline: float | None
) -> tuple[int, int, int, list[tuple[int, ...]]]:
    """A universe's largest intersecting family: (optimum, vertex mask, nodes, dihedral permutations).

    The solve starts from the star (every vertex holding 1) as incumbent and
    from the orbit chain of the dihedral group, and branches orbitally below
    it.  graph must hold every k-separated r-set of [n] once, in any order,
    so that the circle's symmetries are automorphisms of it.  The deadline
    is read before each symmetry after the identity, before the solve,
    while the rows are built, when they are not built yet, and at every
    node.
    """
    perms = _vertex_permutations(graph, deadline=deadline)
    seconds_left(deadline, "the solve")
    optimum, mask, nodes, _ = _search(
        graph.reversed_rows(deadline), None, None, deadline, perms, _star_mask(graph)
    )
    return optimum, mask, nodes, perms


def max_intersecting(
    n: int,
    r: int,
    k: int,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    deadline: float | None = None,
) -> SearchResult:
    """Exact maximum size of an intersecting family of k-separated r-sets in [n].

    The solve (`_universe_solve`) starts from the star as incumbent and from
    the orbit chain of the dihedral group.  The witness is the least image
    of the optimum's vertex mask under the group, its canonical form;
    repeated runs are identical.  One deadline (time.monotonic()) covers the
    whole call: the universe, the symmetries (read before each one is
    built), the rows, the solve and the canonicalisation of the witness.
    """
    graph = separated_universe(n, r, k, max_vertices, deadline)
    optimum, mask, nodes, perms = _universe_solve(graph, deadline)
    seconds_left(deadline, "canonicalising the witness")
    least = _least(_orbit(mask, perms))
    return SearchResult(n, r, k, optimum, graph.subfamily(least), None, nodes)


def max_intersecting_weighted(
    n: int,
    r: int,
    k: int,
    weight_fn: Callable[[CircSet], int],
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    deadline: float | None = None,
) -> SearchResult:
    """Exact maximum total weight of an intersecting family under a non-negative integer weight.

    An arbitrary weight need not respect the circle symmetries, so the solve
    is the plain search and the witness is one optimal family as found, not
    canonicalised.  One deadline covers the universe, the weights, the rows
    and the solve.
    """
    graph = separated_universe(n, r, k, max_vertices, deadline)
    weights = [weight_fn(s) for s in graph.vertices]
    for s, w in zip(graph.vertices, weights):
        if not isinstance(w, int) or w < 0:
            raise ValueError(f"weight of {s} must be a non-negative integer, got {w!r}")
    seconds_left(deadline, "the solve")
    optimum, mask, nodes, _ = _search(graph.reversed_rows(deadline), weights, None, deadline)
    return SearchResult(n, r, k, optimum, graph.subfamily(mask), None, nodes)


def _dihedral_census(graph: DisjointnessGraph, deadline: float | None) -> tuple[list[list[int]], int]:
    """The dihedral orbit of each class of optima, and the enumeration's node count.

    One enumeration from the star's size, on the orbit chain of the dihedral
    group, meets at least one optimum per class.  Every image of an optimum
    is an optimum, so each optimum not yet seen has its orbit walked once,
    its images in the order of `_vertex_permutations`, and marked as seen;
    the orbits come in the order their classes were first met.
    """
    perms = _vertex_permutations(graph, deadline=deadline)
    star = _star_mask(graph).bit_count()
    seconds_left(deadline, "enumerating the optima")
    _, _, nodes, masks = _search(graph.reversed_rows(deadline), None, star, deadline, perms)
    if not masks:
        raise RuntimeError(f"enumeration returned no optimum of size {star} or more")
    seen: set[int] = set()
    orbits = []
    for mask in masks:
        seconds_left(deadline, "canonicalising the optima")
        if mask not in seen:
            images = _orbit(mask, perms)
            seen.update(images)
            orbits.append(images)
    return orbits, nodes


def extremal_classes(
    n: int,
    r: int,
    k: int,
    *,
    rotations_only: bool = False,
    max_vertices: int = CLASS_MAX_VERTICES,
    deadline: float | None = None,
) -> SearchResult:
    """All maximum intersecting families, reported as one representative per symmetry class.

    `_dihedral_census` walks the dihedral orbit of one optimum per class; the
    optimum is the size of the sets it returns.  The universe keeps the
    orbits and the node count (`DisjointnessGraph.kept`), so a later call on
    it, under either group, builds no symmetries or rows, searches nothing
    and walks no orbit.  The class's representative is its least image
    (`_least`, the canonical form).  With rotations_only, the first n images
    and the last n are the two rotation orbits of the dihedral class, equal
    or disjoint, so the orbit gives one or two representatives, each the
    least of its half.  Representatives are sorted lexicographically; the
    witness is the least of them.  nodes_explored is the dihedral
    enumeration's count under either group.  One deadline covers the whole
    call: the universe, the symmetries (read before each one is built), the
    rows, the enumeration and the orbit walks.
    """
    graph = separated_universe(n, r, k, max_vertices, deadline)
    orbits, nodes = graph.kept(_dihedral_census, deadline)
    if rotations_only:
        reps = {_least(half) for images in orbits for half in (images[:n], images[n:])}
    else:
        reps = {_least(images) for images in orbits}
    classes = tuple(graph.subfamily(m) for m in sorted(reps, key=mask_elems))
    return SearchResult(n, r, k, orbits[0][0].bit_count(), classes[0], classes, nodes)
