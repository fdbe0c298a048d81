"""Circular set arithmetic: k-separated subsets of a cycle, gaps, enumeration, disjointness graphs.

Positions 1..n are read around a circle.  An r-subset is k-separated when every
circular gap between consecutive elements exceeds k; k = 0 places no constraint
and recovers plain r-subsets.
"""

from __future__ import annotations

import math
import time
from functools import cached_property
from itertools import combinations
from operator import attrgetter, ge, gt, le, lt
from typing import Callable, Iterable, Iterator, Sequence, TypeVar


class ResourceLimitError(RuntimeError):
    """Raised when a search exceeds its configured vertex, node, or time budget."""


DEFAULT_MAX_VERTICES = 20000

_T = TypeVar("_T")


def seconds_left(deadline: float | None, stage: str) -> float | None:
    """Seconds left before a time.monotonic() deadline (None without one); raises once none are."""
    left = None if deadline is None else deadline - time.monotonic()
    if left is not None and left <= 0:
        raise ResourceLimitError(f"time limit exceeded before {stage}")
    return left


_set = object.__setattr__  # how a _Value's __init__ sets its fields


def _compare(op):
    """An order method: op on the field tuples of two instances of one class."""
    def method(self, other):
        if other.__class__ is self.__class__:
            return op(self._values(self), self._values(other))
        return NotImplemented

    return method


class _Value:
    """Base of the immutable value classes: equality, hashing and repr by their fields.

    A subclass names its fields in its class statement, as in
    ``class CircSet(_Value, fields=("n", "elems"), order=True)``, and its
    __init__ sets them with _fill, or one at a time with _set.  Instances
    compare and hash as the tuple of their fields (within one class),
    order=True adds <, <=, > and >= on that tuple, and assigning or deleting
    any attribute raises AttributeError.  A cached_property writes to
    __dict__ directly, so it is computed once per instance.
    """

    def __init_subclass__(cls, fields: tuple[str, ...], order: bool = False) -> None:
        cls._fields, cls._values = fields, attrgetter(*fields)
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = map(_compare, (lt, le, gt, ge))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def _fill(self, *values):
        """Set the fields to values, in their order, without checks; returns self."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class CircSet(_Value, fields=("n", "elems"), order=True):
    """An r-subset of {1..n} with positions read circularly.

    The ambient size n travels with the set because several operations move
    sets between ground sets of different sizes.  elems is normalised to a
    strictly increasing tuple; empty sets are rejected.
    """

    def __init__(self, n: int, elems: Iterable[int]) -> None:
        elems = tuple(sorted(elems))
        _set(self, "n", n)
        _set(self, "elems", elems)
        if n < 1:
            raise ValueError(f"ground set size must be positive, got n={n}")
        if not elems:
            raise ValueError("empty sets are not supported (r >= 1 required)")
        if len(set(elems)) != len(elems):
            raise ValueError(f"duplicate elements in {elems}")
        if elems[0] < 1 or elems[-1] > n:
            raise ValueError(f"elements {elems} outside 1..{n}")

    @property
    def r(self) -> int:
        return len(self.elems)

    @cached_property
    def mask(self) -> int:
        """Bitmask with bit a-1 set for each element a."""
        m = 0
        for a in self.elems:
            m |= 1 << (a - 1)
        return m

    def __contains__(self, a: int) -> bool:
        return 1 <= a <= self.n and bool(self.mask >> (a - 1) & 1)

    def __str__(self) -> str:
        return "{" + ",".join(str(a) for a in self.elems) + "}"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "elems": list(self.elems)}


class SetFamily(_Value, fields=("n", "r", "k", "sets")):
    """A duplicate-free collection of k-separated r-sets over the same ground set.

    Members are stored sorted so equality of families is equality of member
    sets.  k = 0 declares no separation constraint, which is how families of
    arbitrary r-sets are carried.
    """

    def __init__(self, n: int, r: int, k: int, sets: Iterable[CircSet]) -> None:
        members = tuple(sorted(set(sets), key=lambda s: s.elems))
        self._fill(n, r, k, members)
        masks = []
        for s in members:
            if s.n != n:
                break
            masks.append(s.mask)
        check_member_masks(masks, n, r, k)
        if len(masks) < len(members):
            s = members[len(masks)]
            raise ValueError(f"member {s} has ambient {s.n}, family has {n}")

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[CircSet]:
        return iter(self.sets)

    @cached_property
    def member_keys(self) -> frozenset[tuple[int, ...]]:
        return frozenset(s.elems for s in self.sets)

    def __contains__(self, s: CircSet) -> bool:
        return s.n == self.n and s.elems in self.member_keys

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "sets": [list(s.elems) for s in self.sets],
        }

    def to_line(self) -> str:
        """One-line text form: 'n r k : {a,b} {c,d} ...'."""
        body = " ".join(str(s) for s in self.sets)
        return f"{self.n} {self.r} {self.k} :" + (" " + body if body else "")


def gap_vector(a: CircSet) -> tuple[int, ...]:
    """Circular gaps (a2-a1, ..., ar-a(r-1), a1+n-ar); they are positive and sum to n."""
    e = a.elems
    return tuple(e[i + 1] - e[i] for i in range(len(e) - 1)) + (e[0] + a.n - e[-1],)


def mask_k_separated(mask: int, n: int, k: int) -> bool:
    """True when no rotation of the circle [n] by j = 1..k steps meets the mask itself.

    Bit a-1 stands for element a.  Rotating by j meets the mask exactly when
    two elements lie j steps apart, so this is "every circular gap exceeds
    k"; j = n rotates a mask onto itself, so k >= n rejects every nonempty
    mask.  k <= 0 accepts every mask.
    """
    doubled = mask | mask << n  # bit p of doubled >> j is bit (p + j) mod n of mask
    for j in range(1, (k if k < n else n) + 1):
        if mask & doubled >> j:
            return False
    return True


def rotate_mask(mask: int, n: int, s: int) -> int:
    """Every element a of a mask moved s steps around the circle [n]: a -> a + s, read mod n."""
    s %= n
    return (mask << s | mask >> (n - s)) & ((1 << n) - 1)


# _BIT_REVERSED[b] is the byte b with its eight bits in reverse order.
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def mirror_mask(mask: int, n: int) -> int:
    """The mirror a -> n + 1 - a of the circle [n] on a mask: the reversal of its n bits.

    The package's one bit reversal.  Each byte's bits are reversed through
    one table and the bytes are read in the opposite order; the shift that
    follows is 0 when n is a whole number of bytes.
    """
    width = (n + 7) // 8
    reversed_bytes = mask.to_bytes(width, "little").translate(_BIT_REVERSED)
    return int.from_bytes(reversed_bytes, "big") >> (8 * width - n)


def mask_elems(mask: int) -> tuple[int, ...]:
    """The elements of a mask in increasing order; also its lexicographic sort key.

    The one bit lister: only the per-member loop of disjointness_rows, the
    lazy row walk of row_edges and the per-node loops of the search keep the
    lowest-bit loop inline.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def check_member_masks(masks: Iterable[int], n: int, r: int, k: int) -> None:
    """The member rules of SetFamily(n, r, k, ...), on masks.

    Raises ValueError unless n >= 1, r >= 1 and k >= 0, and then for the
    lexicographically first mask that lies outside [n], does not have r
    elements or is not k-separated in [n].
    """
    if n < 1:
        raise ValueError(f"ground set size must be positive, got n={n}")
    if r < 1:
        raise ValueError(f"member size must be positive, got r={r}")
    if k < 0:
        raise ValueError(f"separation parameter must be non-negative, got k={k}")
    bad = [m for m in masks if m >> n or m.bit_count() != r or not mask_k_separated(m, n, k)]
    if bad:
        s = CircSet(n, mask_elems(min(bad, key=mask_elems)))
        if s.r != r:
            raise ValueError(f"member {s} has {s.r} elements, family declares r={r}")
        raise ValueError(f"member {s} is not {k}-separated in [{n}]")


def is_k_separated(a: CircSet, k: int) -> bool:
    """True when every circular gap of a exceeds k.  k = 0 accepts every set."""
    if k < 0:
        raise ValueError(f"separation parameter must be non-negative, got k={k}")
    return mask_k_separated(a.mask, a.n, k)


def separated_masks(n: int, r: int, k: int, *, deadline: float | None = None) -> list[int]:
    """The masks of the k-separated r-subsets of the circle [n], in lexicographic order.

    For each first element f, the other r - 1 elements lie in lo..hi with
    lo = f + k + 1 and hi = min(n, f + n - k - 1) (the wrap gap back to f
    exceeds k), pairwise more than k apart: they are lo + c_i + k i for an
    increasing choice c of r - 1 values from range(hi - lo + 1 - k (r - 2)),
    taken from itertools.combinations in lexicographic order.  Empty when
    the circle is too small (n < (k+1)r).  k = 0 gives all r-subsets.  A
    time.monotonic() deadline is read once per first element.
    """
    check_member_masks((), n, r, k)
    # needed at r = 1 too, where combinations(..., 0) yields one empty tuple for any span
    if n < (k + 1) * r:
        return []
    out = []
    for f in range(1, n + 1):
        if deadline is not None:
            seconds_left(deadline, f"the sets from element {f}")
        head = 1 << (f - 1)
        span = min(n, f + n - k - 1) - f - k - k * (r - 2)
        for c in combinations(range(f + k, f + k + span), r - 1):
            mask = head
            for i, x in enumerate(c):
                mask |= 1 << (x + k * i)
            out.append(mask)
    return out


def enumerate_separated(n: int, r: int, k: int) -> SetFamily:
    """All k-separated r-subsets of the circular ground set {1..n}, in lexicographic order.

    The members of `separated_masks(n, r, k)`; empty when n < (k+1)r.
    """
    members = tuple(CircSet(n, mask_elems(m)) for m in separated_masks(n, r, k))
    return SetFamily(n, r, k, members)


def star_size_formula(n: int, r: int, k: int) -> int:
    """Closed form for the number of k-separated r-sets through a fixed element.

    Equals C(n - k r - 1, r - 1); defined for n >= (k+1) r.  count_separated
    checks r and k.
    """
    if not count_separated(n, r, k):
        raise ValueError(f"need n >= (k+1)r = {(k + 1) * r}, got n={n}")
    return math.comb(n - k * r - 1, r - 1)


def count_separated(n: int, r: int, k: int) -> int:
    """Closed form for the number of k-separated r-sets of [n]: n C(n - k r, r) / (n - k r).

    Zero when the circle is too small (n < (k+1) r); k = 0 gives C(n, r).
    """
    if r < 1 or k < 0:
        raise ValueError(f"need r >= 1 and k >= 0, got r={r}, k={k}")
    if n < (k + 1) * r:
        return 0
    return n * math.comb(n - k * r, r) // (n - k * r)


def disjointness_rows(masks: Sequence[int], deadline: float | None = None) -> Iterator[int]:
    """Bitmask adjacency rows over member masks, one at a time: bit j of row i set when masks i and j are disjoint.

    The element incidence is built once, when the first row is asked for:
    meets[1 << b] holds the members whose mask has the bit b.  It is sliced,
    one column per bit, out of the masks' fixed-width bit strings joined last
    member first, so that member j lands on bit j.  Row i is every member
    outside the union of meets[b] over the bits b of mask i.  A
    time.monotonic() deadline is read before the incidence is built and then
    once per row.
    """
    if deadline is not None:
        seconds_left(deadline, "the rows")
    full = (1 << len(masks)) - 1
    width = max(masks, default=0).bit_length()
    bits = "".join(format(m, f"0{width}b") for m in reversed(masks))
    meets = {1 << b: int(bits[width - 1 - b :: width], 2) for b in range(width)}
    # The lowest-bit loop stays inline, not mask_elems: it runs once per member.
    for u, m in enumerate(masks):
        if deadline is not None:
            seconds_left(deadline, f"the row of vertex {u + 1}")
        hit = 0
        while m:
            low = m & -m
            hit |= meets[low]
            m ^= low
        yield full ^ hit


def row_edges(rows: Iterable[int], deadline: float | None = None) -> Iterator[tuple[int, int]]:
    """The pairs (u, v), u < v, with bit v set in row u, in row order.

    Each row is read when the walk reaches it, and its bits are listed one at
    a time (bit e - 1 of row >> (u + 1) is vertex u + e), so a walk stopped
    early reads no more rows, and no more of a long row, than it takes.  With
    a time.monotonic() deadline, it is read once per row.
    """
    for u, row in enumerate(rows):
        if deadline is not None:
            seconds_left(deadline, f"the edges of vertex {u + 1}")
        row >>= u + 1
        while row:
            low = row & -row
            yield u, u + low.bit_length()
            row ^= low


class DisjointnessGraph(_Value, fields=("n", "r", "k", "masks")):
    """Graph on the member masks of a family of k-separated r-sets of [n]; edges join disjoint members.

    Vertex i is masks[i]; the masks are checked as SetFamily(n, r, k, ...)
    members when the graph is made.  What the graph keeps, its one row set
    (reversed_rows) and its edge count (edge_count), is built and kept by
    kept(build, deadline); each member's CircSet is built on first use, at
    most once per vertex.
    """

    def __init__(self, n: int, r: int, k: int, masks: tuple[int, ...]) -> None:
        self._fill(n, r, k, masks)
        check_member_masks(masks, n, r, k)

    def kept(self, build: Callable[[DisjointnessGraph, float | None], _T], deadline: float | None) -> _T:
        """build(self, deadline) on the graph's first call for build, then kept with the graph.

        The package's one rule for what a graph, and so a universe, keeps:
        a later call for the same build returns the kept value, None
        included, and reads no clock; a build that raises (a deadline it
        reads, say) keeps nothing, so the next call builds again.  Builds are
        keyed by the builder and live as long as the graph, a universe's
        until separated_universe replaces it.
        """
        kept = vars(self).setdefault("_kept", {})
        if build not in kept:
            kept[build] = build(self, deadline)
        return kept[build]

    def reversed_rows(self, deadline: float | None) -> tuple[int, ...]:
        """The rows of the members in reverse order: the search's labels, vertex i at index V - 1 - i.

        Row j is vertex V - 1 - j's, with vertex i at bit V - 1 - i: the
        vertex-order rows, each bit-reversed (mirror_mask) and listed in
        reverse order, built directly by disjointness_rows(masks[::-1],
        deadline) and kept (kept); the deadline's stages number the rows in
        these labels.  The rows take about V*V/8 bytes for V vertices.
        """
        return self.kept(_reversed_rows, deadline)

    @cached_property
    def _members(self) -> list[CircSet | None]:
        return [None] * len(self.masks)

    @cached_property
    def vertices(self) -> SetFamily:
        return self.subfamily((1 << len(self.masks)) - 1)

    @property
    def num_vertices(self) -> int:
        return len(self.masks)

    @property
    def num_edges(self) -> int:
        """edge_count() with no deadline."""
        return self.edge_count()

    def edge_count(self, deadline: float | None = None) -> int:
        """The edge count, counted once from the rows and kept (kept).

        A time.monotonic() deadline is read while the rows are built, when
        they are not built yet, and once per block of rows while they are
        counted.
        """
        return self.kept(_edge_count, deadline)

    def edges(self, deadline: float | None = None) -> Iterator[tuple[int, int]]:
        """Edges as index pairs (u, v) with u < v, in vertex order; deadline as in row_edges.

        The deadline bounds building the rows too, when they are not built
        yet.  The kept rows are put back in vertex order one at a time, as
        the walk reaches them, so a walk stopped early mirrors no more rows
        than it reads.
        """
        rows = self.reversed_rows(deadline)
        size = len(rows)
        return row_edges((mirror_mask(row, size) for row in reversed(rows)), deadline)

    def subfamily(self, mask: int) -> SetFamily:
        """The vertices e - 1 for the elements e of mask, as a family of the same (n, r, k).

        Every mask was checked when the graph was made, so when the chosen
        members' elements strictly increase (as on a universe, which is in
        lexicographic order) they are already SetFamily's sorted, distinct
        and checked members, and the family is built without its checks.
        Otherwise SetFamily sorts and checks them as usual.
        """
        members, chosen = self._members, []
        for e in mask_elems(mask):
            s = members[e - 1]
            if s is None:
                s = members[e - 1] = CircSet(self.n, mask_elems(self.masks[e - 1]))
            chosen.append(s)
        chosen = tuple(chosen)
        if not all(a.elems < b.elems for a, b in zip(chosen, chosen[1:])):
            return SetFamily(self.n, self.r, self.k, chosen)
        return SetFamily.__new__(SetFamily)._fill(self.n, self.r, self.k, chosen)

    def to_json_dict(self, deadline: float | None = None) -> dict:
        """Vertices as element lists and edges as index pairs; deadline as in edges."""
        return {
            "vertices": [list(mask_elems(m)) for m in self.masks],
            "edges": [[u, v] for u, v in self.edges(deadline)],
        }


def _reversed_rows(graph: DisjointnessGraph, deadline: float | None) -> tuple[int, ...]:
    return tuple(disjointness_rows(graph.masks[::-1], deadline))


_EDGE_COUNT_BLOCK = 1024  # rows counted between two reads of a deadline


def _edge_count(graph: DisjointnessGraph, deadline: float | None) -> int:
    rows, count = graph.reversed_rows(deadline), 0
    for start in range(0, len(rows), _EDGE_COUNT_BLOCK):
        seconds_left(deadline, f"the edge count at row {start + 1}")
        count += sum(map(int.bit_count, rows[start : start + _EDGE_COUNT_BLOCK]))
    return count // 2


class _LastUniverse:
    """A one-slot cache of the last universe built; what it keeps (DisjointnessGraph.kept) goes with it.

    A call for other parameters builds the new universe before it replaces
    the kept one, so a build that raises (a deadline read by the
    enumeration or before the member check) keeps nothing new.
    """

    graph: DisjointnessGraph | None = None

    def __call__(self, n: int, r: int, k: int, deadline: float | None) -> DisjointnessGraph:
        graph = self.graph
        if graph is None or (graph.n, graph.r, graph.k) != (n, r, k):
            masks = tuple(separated_masks(n, r, k, deadline=deadline))
            seconds_left(deadline, "the member check")
            graph = self.graph = DisjointnessGraph(n, r, k, masks)
        return graph

    def cache_clear(self) -> None:
        self.graph = None


_universe = _LastUniverse()


def separated_universe(
    n: int, r: int, k: int, max_vertices: int, deadline: float | None = None
) -> DisjointnessGraph:
    """The disjointness graph on the k-separated r-sets of [n]; rows and CircSets are built on first use.

    Raises ValueError when n < (k+1)r; checks the count against max_vertices before
    enumerating.  The last instance is cached and shared, rows and CircSets included.
    A time.monotonic() deadline is read while the sets are enumerated, as in
    separated_masks, and before they are checked as members; a build it
    stops caches nothing.
    """
    count = count_separated(n, r, k)
    if n < (k + 1) * r:
        raise ValueError(f"need n >= (k+1)r = {(k + 1) * r}, got n={n}")
    if count > max_vertices:
        raise ResourceLimitError(f"{count} vertices exceed the limit of {max_vertices}")
    return _universe(n, r, k, deadline)
