"""Independent brute-force oracles for the test suite.

Everything here is written from scratch against the definitions, without
reusing package internals, so a bug in the package cannot hide behind a
matching bug in the oracle.
"""

from itertools import combinations


class CountingClock:
    """A stand-in for the time module whose monotonic() counts its own reads, so that a
    deadline of t passes at read t."""

    def __init__(self):
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return self.reads


def kept_by_name(graph) -> dict:
    """What a graph keeps (DisjointnessGraph.kept), by the name of the builder of each value."""
    return {build.__name__: value for build, value in vars(graph).get("_kept", {}).items()}


def circ_gaps(elems: tuple[int, ...], n: int) -> list[int]:
    """Circular gaps via modular distance; element order differs from the package's."""
    e = sorted(elems)
    out = []
    for i in range(len(e)):
        nxt = e[(i + 1) % len(e)]
        out.append((nxt - e[i] - 1) % n + 1)
    return out


def brute_separated(n: int, r: int, k: int) -> list[tuple[int, ...]]:
    """Filter all r-subsets by the separation predicate."""
    return [
        c
        for c in combinations(range(1, n + 1), r)
        if min(circ_gaps(c, n)) > k
    ]


def circle_image(m, n: int, flip: bool, s: int) -> tuple[int, ...]:
    """A set moved by rotation s (x -> x + s), after the mirror x -> n + 1 - x when
    flip, as a sorted tuple."""
    return tuple(sorted(((n - x if flip else x - 1) + s) % n + 1 for x in m))


def dihedral_images(members, n: int, rotations_only: bool = False) -> list[frozenset]:
    """All 2n symmetry images of a family, each as a frozenset of sorted tuples;
    the n rotations alone with rotations_only.

    The rotations come first, s = 0..n-1, and then the reflections: the mirror
    followed by rotation s, s = 0..n-1."""
    flips = (False,) if rotations_only else (False, True)
    return [frozenset(circle_image(m, n, flip, s) for m in members) for flip in flips for s in range(n)]


def least_image(members, n: int, rotations_only: bool = False) -> tuple:
    """The lexicographically least image of a family, as a sorted tuple of sorted tuples."""
    return min(tuple(sorted(img)) for img in dihedral_images(members, n, rotations_only))


def intersecting(members) -> bool:
    ms = [set(m) for m in members]
    return all(ms[i] & ms[j] for i in range(len(ms)) for j in range(i + 1, len(ms)))


def maximal_intersecting(members) -> list[tuple[int, ...]]:
    """Every maximal intersecting subfamily, as a tuple of member indices.

    Bron-Kerbosch with a pivot on the graph joining intersecting members.
    A maximal family holds the pivot or a member disjoint from it (else it
    could add the pivot), so only those start new branches.  The walk visits
    each maximal family once; there are few, even where the intersecting
    subfamilies are too many to walk one by one.
    """
    sets = [set(m) for m in members]
    meets = [
        sum(1 << j for j, t in enumerate(sets) if j != i and s & t) for i, s in enumerate(sets)
    ]
    found: list[tuple[int, ...]] = []

    def bits(mask: int) -> list[int]:
        return [v for v in range(mask.bit_length()) if mask >> v & 1]

    def grow(chosen: tuple[int, ...], cand: int, done: int) -> None:
        if not cand | done:
            found.append(chosen)
            return
        pivot = max(bits(cand | done), key=lambda u: (meets[u] & cand).bit_count())
        for v in bits(cand & ~meets[pivot]):
            grow(chosen + (v,), cand & meets[v], done & meets[v])
            cand &= ~(1 << v)
            done |= 1 << v

    grow((), (1 << len(sets)) - 1, 0)
    return found


def max_intersecting_size(members) -> int:
    """The size of the largest maximal intersecting subfamily."""
    return max(len(c) for c in maximal_intersecting(members))


def max_weight_intersecting(members, weights) -> int:
    sets = [set(m) for m in members]
    best = 0

    def grow(start: int, chosen: list[set], total: int) -> None:
        nonlocal best
        if total > best:
            best = total
        for j in range(start, len(sets)):
            if all(sets[j] & c for c in chosen):
                chosen.append(sets[j])
                grow(j + 1, chosen, total + weights[j])
                chosen.pop()

    grow(0, [], 0)
    return best


def all_maximum_intersecting(members) -> list[frozenset]:
    """Every maximum intersecting subfamily, as frozensets of member tuples."""
    found = maximal_intersecting(members)
    top = max(len(c) for c in found)
    return [
        frozenset(tuple(sorted(members[i])) for i in c) for c in found if len(c) == top
    ]


def vertex_permutations(members, n: int, rotations_only: bool = False) -> list[list[int]]:
    """Each of the 2n circle symmetries (the n rotations with rotations_only) as a
    permutation of member indices, in the order of dihedral_images: perm[i] is the
    index of the image of member i."""
    index = {tuple(sorted(m)): i for i, m in enumerate(members)}
    flips = (False,) if rotations_only else (False, True)
    return [[index[circle_image(m, n, flip, s)] for m in members] for flip in flips for s in range(n)]


def exceptional_members(r: int, i: int) -> list[tuple[int, ...]]:
    """The i-th exceptional family of the circle of 2r+2 points (k = 1), 1 <= i <= r // 2:
    the 1-separated r-sets that meet the window {1, 3, ..., 4i+1} in at least i+1
    points, in lexicographic order."""
    window = set(range(1, 4 * i + 2, 2))
    return [s for s in brute_separated(2 * r + 2, r, 1) if len(window & set(s)) >= i + 1]


def count_classes(families: list[frozenset], n: int, rotations_only: bool = False) -> int:
    """Group families by dihedral orbit (rotation orbit with rotations_only) and count the orbits."""
    seen: set[frozenset] = set()
    classes = 0
    for fam in families:
        if fam in seen:
            continue
        classes += 1
        for img in dihedral_images(fam, n, rotations_only):
            seen.add(img)
    return classes


def antipodal_transversal_classes(r: int, rotations_only: bool = False) -> int:
    """Orbits of the antipodal transversals of the (2r+2)-circle under the dihedral group
    (the rotations with rotations_only), counted over all 2^(r+1) transversals.

    A transversal takes one point from each antipodal pair {p, p+r+1}.  Every
    symmetry maps antipodal pairs to antipodal pairs, so it permutes the
    transversals, and each orbit is counted once by its least image."""
    m, n = r + 1, 2 * r + 2
    least = set()
    for bits in range(2**m):
        t = [p + m * (bits >> (p - 1) & 1) for p in range(1, m + 1)]
        images = [sorted((x - 1 + s) % n + 1 for x in t) for s in range(n)]
        if not rotations_only:
            images += [sorted((s - (x - 1)) % n + 1 for x in t) for s in range(n)]
        least.add(tuple(min(images)))
    return len(least)


def nx_max_intersecting(members, weights=None) -> int:
    """Third route: maximum clique of the intersection graph via networkx."""
    import networkx as nx

    g = nx.Graph()
    for i, m in enumerate(members):
        g.add_node(i, weight=1 if weights is None else weights[i])
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if set(members[i]) & set(members[j]):
                g.add_edge(i, j)
    _, value = nx.max_weight_clique(g, weight="weight")
    return value


def first_fit_clique_bound(vertices, edges, weights=None) -> int:
    """First-fit clique partition: each vertex, in index order, joins the first
    class whose members are all adjacent to it, or opens a new class.

    Returns the number of classes, or with weights the sum of class maxima.
    edges is a set of frozenset pairs.
    """
    classes: list[list[int]] = []
    for v in sorted(vertices):
        for members in classes:
            if all(frozenset((u, v)) in edges for u in members):
                members.append(v)
                break
        else:
            classes.append([v])
    if weights is None:
        return len(classes)
    return sum(max(weights[v] for v in members) for members in classes)


def branch_vertex(cand: int, adj) -> int:
    """The vertex of the mask cand with the most neighbours inside cand, the
    lowest index on ties; -1 when cand is empty.  adj holds bitmask rows, read
    one bit at a time."""
    members = [v for v in range(len(adj)) if cand >> v & 1]
    degree = {v: sum(adj[v] >> u & 1 for u in members) for v in members}
    return min(members, key=lambda v: (-degree[v], v), default=-1)


def cover_walk(cand: int, adj, weights=None) -> tuple[int, int]:
    """The clique-cover walk of the search in the graph's own labels, from the lowest bit:
    (first-fit bound, branch vertex with ties to the lowest index, -1 when cand is empty).

    The search runs the same walk from the highest bit on bit-reversed labels;
    this is the lowest-bit form it replaced, kept as its oracle."""
    bound = 0
    best_v = best_deg = -1
    rem = cand
    while rem:
        q = rem
        top = 0 if weights is not None else 1
        while q:
            b = q & -q
            v = b.bit_length() - 1
            rem ^= b
            row = adj[v]
            q &= row
            deg = (row & cand).bit_count()
            if deg > best_deg or deg == best_deg and v < best_v:
                best_deg, best_v = deg, v
            if weights is not None and weights[v] > top:
                top = weights[v]
        bound += top
    return bound, best_v


def max_weight_independent(vertices, edges, weights=None) -> int:
    """Largest total weight of a set of pairwise non-adjacent vertices, by
    walking every independent set."""

    def best_from(cands: list[int]) -> int:
        best = 0
        for i, v in enumerate(cands):
            rest = [u for u in cands[i + 1 :] if frozenset((u, v)) not in edges]
            w = 1 if weights is None else weights[v]
            best = max(best, w + best_from(rest))
        return best

    return best_from(sorted(vertices))


def dsatur_steps(adj, colors: int, clique) -> tuple[bool, int]:
    """Whether the graph has a proper colouring with `colors` colours, by DSATUR
    backtracking (Brélaz, 1979) with forced colours, and how many steps that takes.

    The clique's vertices get colours 0, 1, ... in clique order.  A step is a
    partial colouring that leaves a vertex uncoloured, and it reads the most
    distinct colours an uncoloured vertex sees.  If that is all `colors`, the
    step fails.  If it is `colors - 1`, every vertex that sees that many takes
    its one colour left, in this one step, and the step fails if two adjacent
    ones take the same colour.  Otherwise it colours the uncoloured vertex with
    the most distinct neighbour colours, then (Sewell, DIMACS Series vol. 26,
    1996) the largest shared count, then the highest degree, then the lowest
    index.  A vertex's shared count sums, over its uncoloured neighbours, the
    colours used so far that neither of the two sees.  It tries each colour it
    may take, lowest first, up to one above the highest colour used so far.
    """
    nbrs = [[u for u in range(len(adj)) if adj[v] >> u & 1] for v in range(len(adj))]
    colour = {v: c for c, v in enumerate(clique)}
    steps = 0

    def seen(v: int) -> set:
        return {colour[u] for u in nbrs[v] if u in colour}

    def extend(top: int) -> bool:
        nonlocal steps
        left = [v for v in range(len(adj)) if v not in colour]
        if not left:
            return True
        steps += 1
        most = max(len(seen(u)) for u in left)
        if most == colors:
            return False
        if most == colors - 1:
            forced = {u: min(set(range(colors)) - seen(u)) for u in left if len(seen(u)) == most}
            if any(forced[u] == forced.get(w) for u in forced for w in nbrs[u]):
                return False
            colour.update(forced)
            if extend(max(top, *forced.values())):
                return True
            for u in forced:
                del colour[u]
            return False

        def avail(u: int) -> set:
            return set(range(top + 1)) - seen(u)

        def shared(u: int) -> int:
            return sum(len(avail(u) & avail(w)) for w in nbrs[u] if w not in colour)

        v = max(left, key=lambda u: (len(seen(u)), shared(u), len(nbrs[u]), -u))
        for c in range(min(colors - 1, top + 1) + 1):
            if c not in seen(v):
                colour[v] = c
                if extend(max(top, c)):
                    return True
                del colour[v]
        return False

    return extend(len(clique) - 1), steps


def greedy_maximal_intersecting(n: int, r: int, k: int, rng) -> list[tuple[int, ...]]:
    """The random maximal family from its definition: draw rng.random() once per
    separated set, in lexicographic order, then keep each set, taken in increasing
    key order (ties in lexicographic order), that meets every set kept so far.
    Returned sorted."""
    universe = brute_separated(n, r, k)
    keys = [rng.random() for _ in universe]
    kept: list[set] = []
    for _, s in sorted(zip(keys, universe)):
        if all(set(s) & t for t in kept):
            kept.append(set(s))
    return sorted(tuple(sorted(s)) for s in kept)


def _first_disjoint_pairs(members: list[tuple[int, ...]], n: int) -> list:
    """The first five disjoint pairs (i < j) of the members in lexicographic order, flattened."""
    ms = sorted(members)
    pairs = [(a, b) for i, a in enumerate(ms) for b in ms[i + 1 :] if not set(a) & set(b)]
    return [(n, s) for pair in pairs[:5] for s in pair]


def _fold(s, j: int) -> tuple[int, ...]:
    """j-fold compression: every element x goes to max(1, x - j)."""
    return tuple(sorted({max(1, x - j) for x in s}))


def derived_oracle(n: int, r: int, k: int, members) -> tuple:
    """The derived families of a compression, from their definitions, as
    (images, overlap, reduced, reduced_image, components), each a set of
    element tuples; members as for compression_oracle.

    compress sends x to max(1, x - 1) and j-fold compression x to max(1, x - j).
    A member holding the pair (1, k+2) is in boundary cell 0, one holding
    (n+1-i, k+2-i) in boundary cell i; the others are anchored (they hold 1)
    or free.  The images are the compressed free and anchored members, the
    overlap the images reached from both.  The reduced family is the union of
    k+2 components: the overlap compressed k-1 more steps, then each boundary
    cell compressed k steps, with 1 dropped from every set.
    """

    def drop_1(s):
        return tuple(x for x in s if x != 1)

    free, anchored = set(), set()
    boundary: list[set] = [set() for _ in range(k + 1)]
    for a in (tuple(sorted(m)) for m in members):
        cells = [0] if {1, k + 2} <= set(a) else []
        cells += [i for i in range(1, k + 1) if {n + 1 - i, k + 2 - i} <= set(a)]
        if cells:
            boundary[cells[0]].add(a)
        else:
            (anchored if 1 in a else free).add(a)
    free_images = {_fold(a, 1) for a in free}
    anchored_images = {_fold(a, 1) for a in anchored}
    images = free_images | anchored_images
    overlap = free_images & anchored_images
    components = [{drop_1(_fold(e, k - 1)) for e in overlap}]
    components += [{drop_1(_fold(a, k)) for a in cell} for cell in boundary]
    reduced = set().union(*components)
    reduced_image = {_fold(m, 1) for m in reduced}
    return images, overlap, reduced, reduced_image, components


def compression_oracle(n: int, r: int, k: int, members) -> list[tuple]:
    """The nine compression clauses from their definitions, as (clause_id, passed,
    witnesses, detail); a witness is (ambient, elems).  members must be k-separated
    r-sets of [n] with k >= 1, r >= 2 and n >= (k+1)r + 1.

    The derived families are derived_oracle's.
    """

    def separated(s, ground):
        return min(circ_gaps(s, ground)) > k

    family = sorted(tuple(sorted(m)) for m in members)
    witnesses: list = []
    for j in range(1, k + 1):
        groups: dict[tuple, list] = {}
        for a in family:
            groups.setdefault(_fold(a, j), []).append(a)
        for group in groups.values():
            for x in range(len(group)):
                for y in range(x + 1, len(group)):
                    diff = set(group[x]) ^ set(group[y])
                    if len(diff) != 2 or max(diff) > j + 1:
                        witnesses += [(n, group[x]), (n, group[y])]

    images, _, reduced, reduced_image, components = derived_oracle(n, r, k, family)

    def bad(sets, ground, size=None):
        return [
            (ground, s)
            for s in sorted(sets)
            if size is not None and len(s) != size or not separated(s, ground)
        ]

    shared = [
        (n - k, s)
        for i, c in enumerate(components)
        for later in components[i + 1 :]
        for s in sorted(c & later)
    ]
    out = [
        ("input-intersecting", _first_disjoint_pairs(family, n)),
        ("collision-structure", witnesses),
        ("compressed-separated", bad(images, n - 1, r)),
        ("compressed-intersecting", _first_disjoint_pairs(list(images), n - 1)),
        ("reduced-components-disjoint", shared),
        ("reduced-intersecting", _first_disjoint_pairs(list(reduced), n - k)),
        ("reduced-separated", bad(reduced, n - k)),
        ("reduced-image-separated", bad(reduced_image, n - k - 1)),
    ]
    clauses = [(clause_id, not w, w, "") for clause_id, w in out]
    sizes = (len(family), len(images), len(reduced))
    clauses.append(
        ("size-identity", sizes[0] == sizes[1] + sizes[2], [], "%d = %d + %d" % sizes)
    )
    return clauses
