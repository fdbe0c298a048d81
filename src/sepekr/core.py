"""Circular set arithmetic: k-separated subsets of a cycle, gaps, enumeration, disjointness graphs.

Positions 1..n are read around a circle.  An r-subset is k-separated when every
circular gap between consecutive elements exceeds k; k = 0 places no constraint
and recovers plain r-subsets.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence


class ResourceLimitError(RuntimeError):
    """Raised when a search exceeds its configured vertex, node, or time budget."""


DEFAULT_MAX_VERTICES = 20000


def seconds_left(deadline: float | None, stage: str) -> float | None:
    """Seconds left before a time.monotonic() deadline (None without one); raises once none are."""
    left = None if deadline is None else deadline - time.monotonic()
    if left is not None and left <= 0:
        raise ResourceLimitError(f"time limit exceeded before {stage}")
    return left


@dataclass(frozen=True, order=True)
class CircSet:
    """An r-subset of {1..n} with positions read circularly.

    The ambient size n travels with the set because several operations move
    sets between ground sets of different sizes.  elems is normalised to a
    strictly increasing tuple; empty sets are rejected.
    """

    n: int
    elems: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(self.elems))
        object.__setattr__(self, "elems", elems)
        if self.n < 1:
            raise ValueError(f"ground set size must be positive, got n={self.n}")
        if not elems:
            raise ValueError("empty sets are not supported (r >= 1 required)")
        if len(set(elems)) != len(elems):
            raise ValueError(f"duplicate elements in {elems}")
        if elems[0] < 1 or elems[-1] > self.n:
            raise ValueError(f"elements {elems} outside 1..{self.n}")

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

    def intersects(self, other: "CircSet") -> bool:
        return bool(self.mask & other.mask)

    def __str__(self) -> str:
        return "{" + ",".join(str(a) for a in self.elems) + "}"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "elems": list(self.elems)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CircSet":
        return cls(int(data["n"]), tuple(int(a) for a in data["elems"]))


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free collection of k-separated r-sets over the same ground set.

    Members are stored sorted so equality of families is equality of member
    sets.  k = 0 declares no separation constraint, which is how families of
    arbitrary r-sets are carried.
    """

    n: int
    r: int
    k: int
    sets: tuple[CircSet, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(set(self.sets), key=lambda s: s.elems))
        object.__setattr__(self, "sets", members)
        masks = []
        for s in members:
            if s.n != self.n:
                break
            masks.append(s.mask)
        check_member_masks(masks, self.n, self.r, self.k)
        if len(masks) < len(members):
            s = members[len(masks)]
            raise ValueError(f"member {s} has ambient {s.n}, family has {self.n}")

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

    @classmethod
    def from_json_dict(cls, data: dict) -> "SetFamily":
        n = int(data["n"])
        sets = tuple(CircSet(n, tuple(int(a) for a in e)) for e in data["sets"])
        return cls(n, int(data["r"]), int(data["k"]), sets)

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


def mirror_mask(mask: int, n: int) -> int:
    """The mirror a -> n + 1 - a of the circle [n] on a mask: the reversal of its n bits."""
    return int(format(mask, f"0{n}b")[::-1], 2)


def dihedral_images(
    masks: Sequence[int], n: int, rotations_only: bool = False
) -> Iterator[list[int]]:
    """The member masks moved by each symmetry of the circle [n], in member order.

    Yields the n rotations (s = 0..n-1 steps) and then, unless rotations_only,
    the n reflections: the mirror followed by each rotation.
    """
    bases = [masks] if rotations_only else [masks, [mirror_mask(m, n) for m in masks]]
    for base in bases:
        for s in range(n):
            yield [rotate_mask(m, n, s) for m in base]


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


def from_gaps(start: int, gaps: Iterable[int], n: int) -> CircSet:
    """Rebuild a CircSet from a start element and its circular gap sequence.

    Inverse of gap_vector when start is the minimum element.  The gap sequence
    must sum to n; positions past n wrap around the circle.
    """
    gaps = tuple(gaps)
    if not (1 <= start <= n):
        raise ValueError(f"start {start} outside 1..{n}")
    if any(g < 1 for g in gaps):
        raise ValueError(f"gaps must be positive, got {gaps}")
    if sum(gaps) != n:
        raise ValueError(f"gaps {gaps} sum to {sum(gaps)}, expected n={n}")
    elems = [start]
    for g in gaps[:-1]:
        elems.append((elems[-1] + g - 1) % n + 1)
    return CircSet(n, tuple(elems))


def rotate(a: CircSet, s: int) -> CircSet:
    """Rotate every element by s steps around the circle."""
    return CircSet(a.n, mask_elems(rotate_mask(a.mask, a.n, s)))


def reflect(a: CircSet) -> CircSet:
    """Reflect the circle about the axis through position 1: a -> n + 2 - a, read mod n."""
    return CircSet(a.n, mask_elems(rotate_mask(mirror_mask(a.mask, a.n), a.n, 1)))


def separated_masks(n: int, r: int, k: int) -> list[int]:
    """The masks of the k-separated r-subsets of the circle [n], in lexicographic order.

    For each first element f, the other r - 1 elements lie in lo..hi with
    lo = f + k + 1 and hi = min(n, f + n - k - 1) (the wrap gap back to f
    exceeds k), pairwise more than k apart: they are lo + c_i + k i for an
    increasing choice c of r - 1 values from range(hi - lo + 1 - k (r - 2)),
    taken from itertools.combinations in lexicographic order.  Empty when
    the circle is too small (n < (k+1)r).  k = 0 gives all r-subsets.
    """
    check_member_masks((), n, r, k)
    # needed at r = 1 too, where combinations(..., 0) yields one empty tuple for any span
    if n < (k + 1) * r:
        return []
    out = []
    for f in range(1, n + 1):
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


def disjointness_rows(masks: Sequence[int]) -> Iterator[int]:
    """Bitmask adjacency rows over member masks, one at a time: bit j of row i set when masks i and j are disjoint.

    The element incidence is built once, when the first row is asked for:
    meets[1 << b] holds the members whose mask has the bit b.  It is sliced,
    one column per bit, out of the masks' fixed-width bit strings joined last
    member first, so that member j lands on bit j.  Row i is every member
    outside the union of meets[b] over the bits b of mask i.
    """
    full = (1 << len(masks)) - 1
    width = max(masks, default=0).bit_length()
    bits = "".join(format(m, f"0{width}b") for m in reversed(masks))
    meets = {1 << b: int(bits[width - 1 - b :: width], 2) for b in range(width)}
    # The lowest-bit loop stays inline, not mask_elems: it runs once per member.
    for m in masks:
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


@dataclass(frozen=True)
class DisjointnessGraph:
    """Graph on the member masks of a family of k-separated r-sets of [n]; edges join disjoint members.

    Vertex i is masks[i]; the masks are checked as SetFamily(n, r, k, ...)
    members when the graph is made.  Rows are built on first use, and so is
    each member's CircSet, at most once per vertex.
    """

    n: int
    r: int
    k: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        check_member_masks(self.masks, self.n, self.r, self.k)

    @classmethod
    def from_family(cls, family: SetFamily) -> "DisjointnessGraph":
        """The graph on the members of family, in their (lexicographic) order."""
        return cls(family.n, family.r, family.k, tuple(s.mask for s in family.sets))

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        return tuple(disjointness_rows(self.masks))

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
        return sum(row.bit_count() for row in self.adjacency) // 2

    def edges(self, deadline: float | None = None) -> Iterator[tuple[int, int]]:
        """Edges as index pairs (u, v) with u < v, in vertex order; deadline as in row_edges."""
        return row_edges(self.adjacency, deadline)

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
        family = object.__new__(SetFamily)
        for name, value in (("n", self.n), ("r", self.r), ("k", self.k), ("sets", chosen)):
            object.__setattr__(family, name, value)
        return family

    def to_json_dict(self, deadline: float | None = None) -> dict:
        """Vertices as element lists and edges as index pairs; deadline as in row_edges."""
        return {
            "vertices": [list(mask_elems(m)) for m in self.masks],
            "edges": [[u, v] for u, v in self.edges(deadline)],
        }


@lru_cache(maxsize=1)
def _universe(n: int, r: int, k: int) -> DisjointnessGraph:
    return DisjointnessGraph(n, r, k, tuple(separated_masks(n, r, k)))


def separated_universe(n: int, r: int, k: int, max_vertices: int) -> DisjointnessGraph:
    """The disjointness graph on the k-separated r-sets of [n]; rows and CircSets are built on first use.

    Raises ValueError when n < (k+1)r; checks the count against max_vertices before
    enumerating.  The last instance is cached and shared, rows and CircSets included.
    """
    count = count_separated(n, r, k)
    if n < (k + 1) * r:
        raise ValueError(f"need n >= (k+1)r = {(k + 1) * r}, got n={n}")
    if count > max_vertices:
        raise ResourceLimitError(f"{count} vertices exceed the limit of {max_vertices}")
    return _universe(n, r, k)
