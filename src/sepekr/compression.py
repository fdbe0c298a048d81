"""Compression of separated families onto smaller circles, with per-instance verification.

The compression map fixes position 1 and pulls every other element one step
down, shrinking the ambient circle by one.  Iterating it k times sends a
k-separated family on [n] toward [n-k]; the partition and derivation steps
below organise that descent, and the verification suite checks every
structural claim the size bound rests on, clause by clause, on a concrete
family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .core import CircSet, DisjointnessGraph, SetFamily, is_k_separated


def compress(a: CircSet) -> CircSet:
    """Map the circle [n] onto [n-1]: 1 stays put, every other element drops by one.

    When both 1 and 2 are present they merge, so the image can lose an element.
    """
    if a.n < 2:
        raise ValueError("cannot compress below a single position")
    elems = sorted({1 if x == 1 else x - 1 for x in a.elems})
    return CircSet(a.n - 1, tuple(elems))


def compress_iter(a: CircSet, j: int) -> CircSet:
    """Apply compress j times, landing in ambient n - j: every element x goes to max(1, x - j)."""
    if j < 0:
        raise ValueError(f"iteration count must be non-negative, got {j}")
    if a.n - j < a.r:
        raise ValueError(f"cannot fit {a.r} elements in ambient {a.n - j}")
    return CircSet(a.n - j, tuple(sorted({max(1, x - j) for x in a.elems})))


@dataclass(frozen=True)
class PartitionResult:
    """Cells of a separated family, split by how compression treats each member.

    free: members without 1 whose image stays k-separated.
    anchored: members containing 1 whose image stays k-separated.
    boundary: k+1 cells of members whose image degenerates; cell i pins the
    pair (n+1-i, k+2-i), with cell 0 pinning (1, k+2).
    """

    free: SetFamily
    anchored: SetFamily
    boundary: tuple[SetFamily, ...]

    @property
    def n(self) -> int:
        return self.free.n

    @property
    def r(self) -> int:
        return self.free.r

    @property
    def k(self) -> int:
        return self.free.k

    @property
    def cells(self) -> tuple[SetFamily, ...]:
        return (self.free, self.anchored) + self.boundary

    def size(self) -> int:
        return sum(len(c) for c in self.cells)


def _boundary_cell(a: CircSet, n: int, k: int) -> int | None:
    """Index of the boundary pattern a matches, or None.

    Exclusivity for k-separated sets: the patterns pin pairs at circular
    distance k+1, and two different patterns would force two elements at
    distance at most k.
    """
    if 1 in a and (k + 2) in a:
        return 0
    for i in range(1, k + 1):
        if (n + 1 - i) in a and (k + 2 - i) in a:
            return i
    return None


def partition_family(family: SetFamily) -> PartitionResult:
    """Split a k-separated family into the compression cells.

    Requires k >= 1 and n >= (k+1)r + 1.  The classification is verified to be
    exhaustive and exclusive on the given members; a failure would mean a
    non-separated member slipped in and raises.
    """
    n, r, k = family.n, family.r, family.k
    if k < 1:
        raise ValueError(f"compression needs k >= 1, got k={k}")
    if n < (k + 1) * r + 1:
        raise ValueError(f"need n >= (k+1)r + 1 = {(k + 1) * r + 1}, got n={n}")
    free: list[CircSet] = []
    anchored: list[CircSet] = []
    boundary: list[list[CircSet]] = [[] for _ in range(k + 1)]
    for a in family:
        cell = _boundary_cell(a, n, k)
        image = compress(a)
        image_ok = image.r == r and is_k_separated(image, k)
        if cell is None and not image_ok:
            raise RuntimeError(f"member {a} fits no cell; partition not exhaustive")
        if cell is not None and image_ok:
            raise RuntimeError(f"member {a} fits two cells; partition not exclusive")
        if cell is not None:
            boundary[cell].append(a)
        elif 1 in a:
            anchored.append(a)
        else:
            free.append(a)
    return PartitionResult(
        free=SetFamily(n, r, k, tuple(free)),
        anchored=SetFamily(n, r, k, tuple(anchored)),
        boundary=tuple(SetFamily(n, r, k, tuple(b)) for b in boundary),
    )


@dataclass(frozen=True)
class DerivedFamilies:
    """Families produced from a partition by compressing and dropping the anchor.

    images: the compressed free and anchored members (ambient n-1).
    overlap: sets reachable by compression from both a free and an anchored
    member (ambient n-1).
    reduced: the (r-1)-set family on [n-k] assembled from the overlap and the
    boundary cells; claimed k-separated and intersecting when the source
    family is intersecting, so it is carried with k = 0 and the claims are
    checked by the suite.
    reduced_image: one further compression of reduced, ambient n-k-1.
    components: the k+2 pieces of reduced before deduplication, overlap piece
    first.
    """

    images: SetFamily
    overlap: SetFamily
    reduced: SetFamily
    reduced_image: SetFamily
    components: tuple[SetFamily, ...]


def _drop_anchor(a: CircSet) -> CircSet:
    """Remove the element 1; defined only where 1 is present."""
    if a.elems[0] != 1:
        raise ValueError(f"cannot drop 1 from {a}, it is absent")
    return CircSet(a.n, a.elems[1:])


def derive_families(partition: PartitionResult) -> DerivedFamilies:
    """Assemble the reduced (r-1)-set family a partition compresses onto.

    The overlap is compressed k-1 further steps, each boundary cell k steps,
    and the anchor 1 is dropped from every image.  Nothing is checked here;
    verify_compression_suite tests every claim about the result.
    """
    n, r, k = partition.n, partition.r, partition.k
    if r < 2:
        raise ValueError(f"reduction drops an element, needs r >= 2, got r={r}")
    free_images = {compress(a) for a in partition.free}
    anchored_images = {compress(a) for a in partition.anchored}
    overlap = SetFamily(n - 1, r, k, tuple(free_images & anchored_images))
    pieces: list[tuple[CircSet, ...]] = [
        tuple(_drop_anchor(compress_iter(e, k - 1)) for e in overlap)
    ]
    for cell in partition.boundary:
        pieces.append(tuple(_drop_anchor(compress_iter(a, k)) for a in cell))
    components = tuple(SetFamily(n - k, r - 1, 0, piece) for piece in pieces)
    reduced = SetFamily(n - k, r - 1, 0, tuple(m for c in components for m in c))
    return DerivedFamilies(
        images=SetFamily(n - 1, r, k, tuple(free_images | anchored_images)),
        overlap=overlap,
        reduced=reduced,
        reduced_image=SetFamily(n - k - 1, r - 1, 0, tuple(compress(m) for m in reduced)),
        components=components,
    )


@dataclass(frozen=True)
class ClauseResult:
    """Outcome of one verification clause, with the witnessing sets on failure."""

    clause_id: str
    passed: bool
    witnesses: tuple[CircSet, ...]
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "clause_id": self.clause_id,
            "passed": self.passed,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CompressionReport:
    """Clause-by-clause verification of the compression argument on one family."""

    n: int
    r: int
    k: int
    clauses: tuple[ClauseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, clause_id: str) -> ClauseResult:
        for c in self.clauses:
            if c.clause_id == clause_id:
                return c
        raise KeyError(clause_id)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "passed": self.passed,
            "clauses": [c.to_json_dict() for c in self.clauses],
        }


def _collision_clause(family: SetFamily) -> ClauseResult:
    """Sets identified by j-fold compression must differ in exactly two elements of 1..j+1."""
    witnesses: list[CircSet] = []
    images = family.sets
    for j in range(1, family.k + 1):
        images = tuple(compress(a) for a in images)  # the j-fold images, carried forward
        buckets: dict[tuple[int, ...], list[CircSet]] = {}
        for a, image in zip(family, images):
            buckets.setdefault(image.elems, []).append(a)
        for group in buckets.values():
            for x in range(len(group)):
                for y in range(x + 1, len(group)):
                    diff = set(group[x].elems) ^ set(group[y].elems)
                    if len(diff) != 2 or max(diff) > j + 1:
                        witnesses.extend((group[x], group[y]))
    return ClauseResult("collision-structure", not witnesses, tuple(witnesses))


def _disjoint_pairs(family: SetFamily) -> tuple[CircSet, ...]:
    """The first five disjoint pairs (i < j) in (i, j) order, flattened: a clause's witnesses."""
    edges = islice(DisjointnessGraph(family).edges(), 5)
    return tuple(family.sets[v] for edge in edges for v in edge)


def _shared_members(components: tuple[SetFamily, ...]) -> tuple[CircSet, ...]:
    """Members each later component shares with each earlier one, in (i, j, sorted) order."""
    return tuple(
        CircSet(c.n, e)
        for i, c in enumerate(components)
        for later in components[i + 1 :]
        for e in sorted(c.member_keys & later.member_keys)
    )


def verify_compression_suite(family: SetFamily) -> CompressionReport:
    """Check every structural clause of the compression argument on one family.

    Intended for intersecting families; a non-intersecting input fails the
    first clause and usually some later ones, all reported with witnesses
    rather than raised.  compressed-separated cannot fail: it restates the
    exhaustiveness check of partition_family, which raises RuntimeError first,
    and derived.images is a validated SetFamily with the same k.  It is kept so
    the report lists every claim the size bound rests on.
    """
    n, r, k = family.n, family.r, family.k
    if k < 1:
        raise ValueError(f"compression needs k >= 1, got k={k}")
    if r < 2:
        raise ValueError(f"reduction needs r >= 2, got r={r}")
    if n < (k + 1) * r + 1:
        raise ValueError(f"need n >= (k+1)r + 1 = {(k + 1) * r + 1}, got n={n}")
    clauses: list[ClauseResult] = []

    disjoint_pairs = _disjoint_pairs(family)
    clauses.append(ClauseResult("input-intersecting", not disjoint_pairs, disjoint_pairs))

    clauses.append(_collision_clause(family))

    derived = derive_families(partition_family(family))
    images = derived.images

    bad_images = tuple(m for m in images if m.r != r or not is_k_separated(m, k))
    clauses.append(ClauseResult("compressed-separated", not bad_images, bad_images))

    disjoint_images = _disjoint_pairs(images)
    clauses.append(
        ClauseResult("compressed-intersecting", not disjoint_images, disjoint_images)
    )

    shared = _shared_members(derived.components)
    clauses.append(ClauseResult("reduced-components-disjoint", not shared, shared))

    disjoint_reduced = _disjoint_pairs(derived.reduced)
    clauses.append(
        ClauseResult("reduced-intersecting", not disjoint_reduced, disjoint_reduced)
    )

    bad_reduced = tuple(m for m in derived.reduced if not is_k_separated(m, k))
    clauses.append(ClauseResult("reduced-separated", not bad_reduced, bad_reduced))

    bad_reduced_image = tuple(
        m for m in derived.reduced_image if not is_k_separated(m, k)
    )
    clauses.append(
        ClauseResult("reduced-image-separated", not bad_reduced_image, bad_reduced_image)
    )

    total = len(family)
    recovered = len(images) + len(derived.reduced)
    clauses.append(
        ClauseResult(
            "size-identity",
            total == recovered,
            (),
            detail=f"{total} = {len(images)} + {len(derived.reduced)}",
        )
    )

    return CompressionReport(n=n, r=r, k=k, clauses=tuple(clauses))
