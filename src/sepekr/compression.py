"""Compression of separated families onto smaller circles, with per-instance verification.

The compression map fixes position 1 and pulls every other element one step
down, shrinking the ambient circle by one.  Iterating it k times sends a
k-separated family on [n] toward [n-k]; the partition and derivation steps
below organise that descent, and the verification suite checks every
structural claim the size bound rests on, clause by clause, on a concrete
family.

One private mask engine does the work.  A member is a Python int in which
bit a-1 stands for element a, and its primitives are:

- compress: ``(m & 1) | (m >> 1)``;
- j-fold compress: ``(m >> j) | 1`` when one of the bits 0..j is set, else
  ``m >> j`` (every element x goes to max(1, x - j));
- k-separation in [n]: ``m & rot(m, j) == 0`` for j = 1..k, with rot cyclic
  in n bits (``core.mask_k_separated``);
- size: ``m.bit_count()``;
- lexicographic member order: the order of the element tuples, the order a
  ``SetFamily`` keeps (for sets of one size, descending bit-reversed mask).

``verify_compression_suite`` reads each member's mask once and runs the
partition, the derivation and all nine clauses on masks; ``derive_families``
runs the same partition and derivation.  Each fact about a member is checked
once: the partition tests every image for size and k-separation, and the
derivation checks each reduced component with ``core.check_member_masks``
(the rules and messages of ``SetFamily``); every other derived family is
made of members already checked, as ``_derive`` explains.  ``CircSet`` and
``SetFamily`` objects are built only at the API boundary (``compress``,
``compress_iter``, ``partition_family``, ``derive_families``) and for the
witnesses of a failed clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, NamedTuple

from .core import (
    CircSet,
    SetFamily,
    check_member_masks,
    disjointness_rows,
    mask_elems,
    mask_k_separated,
    row_edges,
)


# === the mask engine ===


def _compress_mask(m: int) -> int:
    """One compression step on a mask: 1 stays put, every other element drops by one."""
    return (m & 1) | (m >> 1)


def _compress_iter_mask(m: int, j: int) -> int:
    """j compression steps at once: every element x goes to max(1, x - j)."""
    return (m >> j) | (1 if m & ((1 << (j + 1)) - 1) else 0)


def _lex(masks: Iterable[int]) -> list[int]:
    return sorted(masks, key=mask_elems)


def _circset(n: int, m: int) -> CircSet:
    return CircSet(n, mask_elems(m))


def _partition(
    masks: Iterable[int], n: int, r: int, k: int
) -> tuple[list[int], list[int], list[list[int]]]:
    """Split the members of a k-separated family into (free, anchored, boundary cells).

    Boundary cell 0 pins the pair (1, k+2) and cell i >= 1 the pair
    (n+1-i, k+2-i).  The cells are exclusive for k-separated sets: two
    patterns would force two elements at circular distance at most k.  A
    member belongs to a boundary cell exactly when its image is not a
    k-separated r-set; a member for which the two tests disagree raises.
    """
    if k < 1:
        raise ValueError(f"compression needs k >= 1, got k={k}")
    if n < (k + 1) * r + 1:
        raise ValueError(f"need n >= (k+1)r + 1 = {(k + 1) * r + 1}, got n={n}")
    patterns = [1 | 1 << (k + 1)] + [1 << (n - i) | 1 << (k + 1 - i) for i in range(1, k + 1)]
    free: list[int] = []
    anchored: list[int] = []
    boundary: list[list[int]] = [[] for _ in patterns]
    for m in masks:
        cell = None
        for i, pattern in enumerate(patterns):
            if m & pattern == pattern:
                cell = i
                break
        image = _compress_mask(m)
        image_ok = image.bit_count() == r and mask_k_separated(image, n - 1, k)
        if cell is None and not image_ok:
            raise RuntimeError(f"member {_circset(n, m)} fits no cell; partition not exhaustive")
        if cell is not None and image_ok:
            raise RuntimeError(f"member {_circset(n, m)} fits two cells; partition not exclusive")
        if cell is not None:
            boundary[cell].append(m)
        elif m & 1:
            anchored.append(m)
        else:
            free.append(m)
    return free, anchored, boundary


def _reduce(masks: Iterable[int], j: int) -> set[int]:
    """Compress each member by j steps and drop the anchor 1 from the image.

    Every member _derive passes has an element <= j+1, so its image holds 1,
    and at most one, so with r >= 2 the image keeps another element.
    """
    return {_compress_iter_mask(m, j) ^ 1 for m in masks}


class _Derived(NamedTuple):
    """The derived families as sets of masks; DerivedFamilies documents each."""

    images: set[int]
    overlap: set[int]
    reduced: set[int]
    reduced_image: set[int]
    components: list[set[int]]


def _derive(
    free: list[int], anchored: list[int], boundary: list[list[int]], n: int, r: int, k: int
) -> _Derived:
    """Compress the cells and drop the anchor; each component's members are checked.

    The component check is the only member check here, because every other
    derived family's members are already checked.  The images (so also the
    overlap, a subset of them) are the images _partition has tested for size
    and k-separation, raising on a failure first.  reduced is the union of
    the checked components.  A component member has r-1 elements only if its
    image held the anchor and lost it, so bit 0 is clear and compressing it
    once more is ``m >> 1``, which keeps its size.
    """
    if r < 2:
        raise ValueError(f"reduction drops an element, needs r >= 2, got r={r}")
    free_images = {_compress_mask(m) for m in free}
    anchored_images = {_compress_mask(m) for m in anchored}
    overlap = free_images & anchored_images
    components = [_reduce(overlap, k - 1)]
    components += [_reduce(cell, k) for cell in boundary]
    for component in components:
        check_member_masks(component, n - k, r - 1, 0)
    reduced = set().union(*components)
    images = free_images | anchored_images
    reduced_image = {_compress_mask(m) for m in reduced}
    return _Derived(images, overlap, reduced, reduced_image, components)


def _clause(clause_id: str, n: int, witnesses: list[int]) -> ClauseResult:
    """A clause that passes when it has no witnesses; the witness masks live in ambient n."""
    return ClauseResult(clause_id, not witnesses, tuple(_circset(n, m) for m in witnesses))


def _disjoint_pairs(masks: Iterable[int]) -> list[int]:
    """The first five disjoint pairs (i < j) of the masks in lexicographic order, flattened.

    Any order answers whether a pair exists, so only masks that have one are
    sorted and walked again for the first five.
    """
    masks = list(masks)
    if next(row_edges(disjointness_rows(masks)), None) is None:
        return []
    masks = _lex(masks)
    pairs: list[int] = []
    for u, v in islice(row_edges(disjointness_rows(masks)), 5):
        pairs += masks[u], masks[v]
    return pairs


def _collision_clause(masks: list[int], n: int, k: int) -> ClauseResult:
    """Sets identified by j-fold compression must differ in exactly two elements of 1..j+1."""
    witnesses: list[int] = []
    images = masks
    for j in range(1, k + 1):
        images = [_compress_mask(m) for m in images]  # the j-fold images, carried forward
        buckets: dict[int, list[int]] = {}
        for m, image in zip(masks, images):
            buckets.setdefault(image, []).append(m)
        for group in buckets.values():
            for x in range(len(group)):
                for y in range(x + 1, len(group)):
                    diff = group[x] ^ group[y]
                    if diff.bit_count() != 2 or diff >> (j + 1):
                        witnesses += group[x], group[y]
    return _clause("collision-structure", n, witnesses)


# === the API boundary ===


def compress(a: CircSet) -> CircSet:
    """Map the circle [n] onto [n-1]: 1 stays put, every other element drops by one.

    When both 1 and 2 are present they merge, so the image can lose an element.
    """
    if a.n < 2:
        raise ValueError("cannot compress below a single position")
    return _circset(a.n - 1, _compress_mask(a.mask))


def compress_iter(a: CircSet, j: int) -> CircSet:
    """Apply compress j times, landing in ambient n - j: every element x goes to max(1, x - j)."""
    if j < 0:
        raise ValueError(f"iteration count must be non-negative, got {j}")
    if a.n - j < a.r:
        raise ValueError(f"cannot fit {a.r} elements in ambient {a.n - j}")
    return _circset(a.n - j, _compress_iter_mask(a.mask, j))


def _family(n: int, r: int, k: int, masks: Iterable[int]) -> SetFamily:
    return SetFamily(n, r, k, tuple(_circset(n, m) for m in masks))


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
    def cells(self) -> tuple[SetFamily, ...]:
        return (self.free, self.anchored) + self.boundary

    def size(self) -> int:
        return sum(len(c) for c in self.cells)


def partition_family(family: SetFamily) -> PartitionResult:
    """Split a k-separated family into the compression cells.

    Requires k >= 1 and n >= (k+1)r + 1.  The classification is verified to be
    exhaustive and exclusive on the given members; a failure would mean a
    non-separated member slipped in and raises.
    """
    n, r, k = family.n, family.r, family.k
    free, anchored, boundary = _partition([s.mask for s in family], n, r, k)
    return PartitionResult(
        free=_family(n, r, k, free),
        anchored=_family(n, r, k, anchored),
        boundary=tuple(_family(n, r, k, cell) for cell in boundary),
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


def derive_families(family: SetFamily) -> DerivedFamilies:
    """Assemble the reduced (r-1)-set family that a k-separated family compresses onto.

    The family is partitioned as partition_family does, raising where it
    raises; the overlap is compressed k-1 further steps, each boundary cell k
    steps, and the anchor 1 is dropped from every image.  Nothing is claimed
    here; verify_compression_suite tests every claim about the result.
    """
    n, r, k = family.n, family.r, family.k
    d = _derive(*_partition([s.mask for s in family], n, r, k), n, r, k)
    return DerivedFamilies(
        images=_family(n - 1, r, k, d.images),
        overlap=_family(n - 1, r, k, d.overlap),
        reduced=_family(n - k, r - 1, 0, d.reduced),
        reduced_image=_family(n - k - 1, r - 1, 0, d.reduced_image),
        components=tuple(_family(n - k, r - 1, 0, c) for c in d.components),
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


def verify_compression_suite(family: SetFamily) -> CompressionReport:
    """Check every structural clause of the compression argument on one family.

    Intended for intersecting families; a non-intersecting input fails the
    first clause and usually some later ones, all reported with witnesses
    rather than raised.  compressed-separated cannot fail: it restates the
    exhaustiveness check of the partition, which raises RuntimeError first.
    It is kept so the report lists every claim the size bound rests on.  The
    partition and the derivation are the ones derive_families runs: the
    partition raises ValueError unless k >= 1 and n >= (k+1)r + 1, and the
    derivation unless r >= 2.
    """
    n, r, k = family.n, family.r, family.k
    masks = [s.mask for s in family.sets]
    d = _derive(*_partition(masks, n, r, k), n, r, k)
    shared = [
        m
        for i, c in enumerate(d.components)
        for later in d.components[i + 1 :]
        for m in _lex(c & later)
    ]
    total = len(masks)
    sizes = f"{total} = {len(d.images)} + {len(d.reduced)}"
    clauses = (
        _clause("input-intersecting", n, _disjoint_pairs(masks)),
        _collision_clause(masks, n, k),
        _clause(
            "compressed-separated",
            n - 1,
            _lex(m for m in d.images if m.bit_count() != r or not mask_k_separated(m, n - 1, k)),
        ),
        _clause("compressed-intersecting", n - 1, _disjoint_pairs(d.images)),
        _clause("reduced-components-disjoint", n - k, shared),
        _clause("reduced-intersecting", n - k, _disjoint_pairs(d.reduced)),
        _clause(
            "reduced-separated",
            n - k,
            _lex(m for m in d.reduced if not mask_k_separated(m, n - k, k)),
        ),
        _clause(
            "reduced-image-separated",
            n - k - 1,
            _lex(m for m in d.reduced_image if not mask_k_separated(m, n - k - 1, k)),
        ),
        ClauseResult(
            "size-identity", total == len(d.images) + len(d.reduced), (), detail=sizes
        ),
    )
    return CompressionReport(n=n, r=r, k=k, clauses=clauses)
