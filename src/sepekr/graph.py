"""Disjointness graphs of set families: Kneser and Schrijver instances, exact invariants."""

from __future__ import annotations

from itertools import islice

from .core import (
    DEFAULT_MAX_VERTICES, DisjointnessGraph, ResourceLimitError, count_separated, mask_elems,
    seconds_left, separated_universe,
)
from .search import _reversed, _search, _universe_solve, _vertex_permutations, solve_max_independent

COLORING_MAX_VERTICES = 64


def build_kneser(n: int, r: int, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> DisjointnessGraph:
    """Kneser graph: all r-subsets of [n], edges between disjoint pairs."""
    return separated_universe(n, r, 0, max_vertices)


def build_schrijver(
    n: int, r: int, k: int = 1, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> DisjointnessGraph:
    """Induced subgraph of the Kneser graph on the k-separated r-sets."""
    return separated_universe(n, r, k, max_vertices)


def _is_universe(graph: DisjointnessGraph) -> bool:
    """Whether the graph holds every k-separated r-set of [n] once, in any order.

    Its masks are checked members, so distinct masks as many as the closed
    form counts are the whole universe, and every symmetry of the circle is
    an automorphism of the graph and of its complement.
    """
    masks = graph.masks
    return 0 < len(masks) == len(set(masks)) == count_separated(graph.n, graph.r, graph.k)


def independence_number(
    graph: DisjointnessGraph,
    *,
    deadline: float | None = None,
) -> int:
    """Exact independence number via the branch-and-bound solver.

    On a whole universe it is `max_intersecting`'s solve (`_universe_solve`):
    the star as incumbent, the dihedral orbit chain and orbital branching.
    Any other graph gets the plain search.  The search reads the graph's
    rows in its own labels (reversed_rows); the deadline bounds building
    them too, when they are not built yet, and the symmetries on a universe.
    """
    if _is_universe(graph):
        return _universe_solve(graph, deadline)[0]
    return _search(graph.reversed_rows(deadline), None, None, deadline)[0]


def _colorable(
    adj: tuple[int, ...], colors_allowed: int, clique: list[int], deadline: float | None
) -> bool:
    """Backtracking c-colorability with the clique pre-coloured and fresh-colour symmetry breaking.

    Each step colours the DSATUR vertex (Brélaz, "New methods to color the
    vertices of a graph", 1979): most distinct neighbour colours, then the
    largest shared count (Sewell, "An improved algorithm for exact graph
    coloring", DIMACS Series vol. 26, 1996), then highest degree, then lowest
    index, trying the lowest colour first.  A vertex's shared count sums, over
    its uncoloured neighbours w, the colours in use (0..top) that neither it
    nor w sees; it is worked out only when two or more vertices tie on
    colours, from one bitset per colour in use of the uncoloured vertices that
    may still take it.  The vertices are relabelled once into the degree order
    (degree descending, index ascending), so the DSATUR vertex is the lowest
    bit of the uncoloured vertices with the most neighbour colours and, among
    them, the largest shared count.  A state is (uncoloured vertices,
    planes, near, top colour used) in int bitsets: near[c] holds the vertices
    next to colour c, and the planes bit-slice each vertex's count of distinct
    neighbour colours, top bit first (planes[-1 - i] holds bit i).  A child adds
    one to the count of each vertex that meets its colour for the first time,
    by ripple carry.  A vertex sees at most c colours and c < 2**c.bit_length(),
    so c.bit_length() planes hold every count and no carry leaves the top plane.
    Raises ResourceLimitError once no seconds are left before deadline (None: no deadline).
    """
    order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
    label = {v: new for new, v in enumerate(order)}
    rows = [sum(1 << label[e - 1] for e in mask_elems(adj[v])) for v in order]
    left = (1 << len(adj)) - 1
    for v in clique:
        left &= ~(1 << label[v])
    planes = [0] * colors_allowed.bit_length()
    near = [0] * colors_allowed
    for color, v in enumerate(clique):
        near[color] = moved = rows[label[v]] & left
        i = -1
        while moved:
            planes[i], moved = planes[i] ^ moved, planes[i] & moved
            i -= 1
    # the colours a vertex may take after top, highest first, so that the lowest is popped first
    tries = [range(min(colors_allowed - 1, top + 1), -1, -1) for top in range(-1, colors_allowed)]
    steps = 0
    stack = [(left, planes, near, len(clique) - 1)]
    push = stack.append
    while stack:
        left, planes, near, top = stack.pop()
        if not left:
            return True
        steps += 1
        if deadline is not None:
            seconds_left(deadline, f"colouring step {steps}")
        tied = left
        for plane in planes:
            if tied & plane:
                tied &= plane
        bit = tied & -tied
        if tied != bit:
            # Sewell's tie-break: the most colours shared with its uncoloured neighbours
            avail = [left & ~near[c] for c in range(top + 1)]
            best = -1
            while tied:
                low = tied & -tied
                tied ^= low
                row = rows[low.bit_length() - 1]
                shared = sum((row & free).bit_count() for free in avail if free & low)
                if shared > best:
                    best, bit = shared, low
        rest = left ^ bit
        row = rows[bit.bit_length() - 1] & rest
        for color in tries[top + 1]:
            seen = near[color]
            if not seen & bit:
                child_near = near[:]
                child_near[color] = seen | row
                # the pre-colouring's ripple carry, inline: a helper call per child cost 5-10 %
                moved = row & ~seen
                child = planes[:]
                i = -1
                while moved:
                    child[i], moved = child[i] ^ moved, child[i] & moved
                    i -= 1
                push((rest, child, child_near, top if top > color else color))
    return False


def chromatic_number(graph: DisjointnessGraph, *, deadline: float | None = None) -> int:
    """Exact chromatic number by iterative deepening from a maximum clique.

    The clique is a maximum independent set of the complement, found by the
    plain search, and the colouring precolours it.  On a whole universe the
    clique number is first proved by an orbital search of the complement
    (every symmetry of the circle is an automorphism of it), and the plain
    search stops at its first clique of that size (stop_at): the clique the
    whole plain search returns, so every colouring step is the same.  The
    colouring reads the rows in vertex order: the universe's kept rows, in
    the search's labels, put back through the search's reversal (an
    involution) for this call and not kept.  Raises ResourceLimitError
    above COLORING_MAX_VERTICES, or once the time.monotonic() deadline
    passes; one deadline covers the rows, when they are not built yet (and
    is read before each row is reversed), the symmetries, both clique
    searches and the colouring.
    """
    v_count = graph.num_vertices
    if v_count > COLORING_MAX_VERTICES:
        raise ResourceLimitError(
            f"{v_count} vertices exceed the colouring limit of {COLORING_MAX_VERTICES}"
        )
    adj = _reversed(graph.reversed_rows(deadline), deadline)
    full = (1 << v_count) - 1
    complement = [full & ~row & ~(1 << v) for v, row in enumerate(adj)]
    seconds_left(deadline, "the clique search")
    omega = None
    if _is_universe(graph):
        perms = _vertex_permutations(graph, deadline=deadline)
        omega = solve_max_independent(complement, deadline=deadline, perms=perms)[0]
    _, mask, _ = solve_max_independent(complement, deadline=deadline, stop_at=omega)
    clique = [e - 1 for e in mask_elems(mask)]
    seconds_left(deadline, "the colouring")
    for c in range(len(clique), v_count + 1):
        if _colorable(adj, c, clique, deadline):
            return c
    raise AssertionError("a graph is always colourable with one colour per vertex")


def export_dimacs(graph: DisjointnessGraph, destination, *, deadline: float | None = None) -> None:
    """Write the graph in DIMACS format: 'p edge V E' then 'e u v' lines with 1-based u < v.

    The edges come from the graph's one kept row set (edges()).  The lines
    go to an anonymous temporary file in tempfile.gettempdir() (TMPDIR, else
    usually /tmp) as the walk yields them, so the text is never held in this
    process's memory, and are copied to destination after the walk.  Where
    that directory is a tmpfs the file's bytes still take RAM, and a full or
    unwritable temporary directory raises OSError even when destination
    could be written.
    With a time.monotonic() deadline, it is read once per adjacency row while
    the rows are built, when they are not built yet, while the edges are
    counted (DisjointnessGraph.edge_count) and while they are listed; nothing
    is written to destination when it passes.
    """
    import shutil
    import tempfile  # here, so that importing the package loads neither

    num_edges = graph.edge_count(deadline)
    with tempfile.TemporaryFile("w+", encoding="ascii") as lines:
        lines.write(f"p edge {graph.num_vertices} {num_edges}\n")
        edges = (f"e {u + 1} {v + 1}\n" for u, v in graph.edges(deadline))
        while block := "".join(islice(edges, 1 << 14)):  # a block's join beats a write per line
            lines.write(block)
        lines.seek(0)
        if isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__"):
            with open(destination, "w", encoding="ascii") as fh:
                shutil.copyfileobj(lines, fh)
        else:
            shutil.copyfileobj(lines, destination)
