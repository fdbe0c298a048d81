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
partition (``_partition``), the derivation (``_derive``) and all nine
clauses on masks.  Each fact about a member is checked once per universe:
the partition tests every image for size and k-separation, and the
derivation checks each reduced component with ``core.check_member_masks``
(the rules and messages of ``SetFamily``); every other derived family is
made of members already checked, as ``_derive`` explains.  Every family of
an (n, r, k) is a subfamily of its universe, so the suite works these facts
out on the universe once (``_universe_verdicts``), with the five clauses
that can only improve on a subfamily, and each family reads them from
there.  The family's members, images and reduced family are subsets of the
universe's, so the verdicts also keep disjointness rows (``_Table``) of the
universe's members, which hold its images too, and of its reduced family,
and the three intersecting clauses ask them whether the family's own masks
hold a disjoint pair; only a family that has one is walked, for its first
five pairs.  ``CircSet`` objects are built only for the witnesses of a
failed clause and for the member a partition error names.
"""

from __future__ import annotations

from functools import reduce
from itertools import count, islice
from operator import or_
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import (
    DEFAULT_MAX_VERTICES,
    CircSet,
    DisjointnessGraph,
    ResourceLimitError,
    SetFamily,
    check_member_masks,
    count_separated,
    disjointness_rows,
    mask_elems,
    mask_k_separated,
    row_edges,
    seconds_left,
    separated_universe,
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
    masks: Iterable[int], n: int, r: int, k: int, deadline: float | None = None
) -> tuple[list[int], list[int], list[list[int]], dict[int, int]]:
    """Split the distinct members of a k-separated family into (free, anchored, boundary cells, images).

    Boundary cell 0 pins the pair (1, k+2) and cell i >= 1 the pair
    (n+1-i, k+2-i).  The cells are exclusive for k-separated sets: two
    patterns would force two elements at circular distance at most k.  A
    member belongs to a boundary cell exactly when its image is not a
    k-separated r-set; a member for which the two tests disagree raises.
    images maps every member, in the given order, to its image under one
    compression step, so that no later step compresses a member again.  A
    time.monotonic() deadline is read once per member.
    """
    if k < 1:
        raise ValueError(f"compression needs k >= 1, got k={k}")
    if n < (k + 1) * r + 1:
        raise ValueError(f"need n >= (k+1)r + 1 = {(k + 1) * r + 1}, got n={n}")
    patterns = [1 | 1 << (k + 1)] + [1 << (n - i) | 1 << (k + 1 - i) for i in range(1, k + 1)]
    free: list[int] = []
    anchored: list[int] = []
    boundary: list[list[int]] = [[] for _ in patterns]
    images: dict[int, int] = {}
    for number, m in enumerate(masks, 1):
        if deadline is not None:
            seconds_left(deadline, f"placing member {number}")
        cell = None
        for i, pattern in enumerate(patterns):
            if m & pattern == pattern:
                cell = i
                break
        image = images[m] = _compress_mask(m)
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
    return free, anchored, boundary, images


def _reduce(masks: Iterable[int], j: int) -> set[int]:
    """Compress each member by j steps and drop the anchor 1 from the image.

    Every member _derive passes has an element <= j+1, so its image holds 1,
    and at most one, so with r >= 2 the image keeps another element.
    """
    return {_compress_iter_mask(m, j) ^ 1 for m in masks}


class _Derived(NamedTuple):
    """Families produced from a partition by compressing and dropping the anchor, as sets of masks.

    images: the compressed free and anchored members (ambient n-1).
    overlap: sets reachable by compression from both a free and an anchored
    member (ambient n-1).
    reduced: the (r-1)-set family on [n-k] assembled from the overlap and the
    boundary cells; claimed k-separated and intersecting when the source
    family is intersecting, and the suite checks the claims.
    reduced_image: one further compression of reduced, ambient n-k-1.
    components: the k+2 pieces of reduced before deduplication, overlap piece
    first.
    """

    images: set[int]
    overlap: set[int]
    reduced: set[int]
    reduced_image: set[int]
    components: list[set[int]]


def _derive(
    free: list[int],
    anchored: list[int],
    boundary: list[list[int]],
    images: dict[int, int],
    n: int,
    r: int,
    k: int,
    checked: bool = False,
    deadline: float | None = None,
) -> _Derived:
    """Compress the cells and drop the anchor; each component's members are checked.

    The component check is the only member check here, because every other
    derived family's members are already checked.  The images (so also the
    overlap, a subset of them) are the images _partition has tested for size
    and k-separation, raising on a failure first.  reduced is the union of
    the checked components.  A component member has r-1 elements only if its
    image held the anchor and lost it, so bit 0 is clear and compressing it
    once more is ``m >> 1``, which keeps its size.  checked skips the
    component check, for cells of a universe whose own components passed
    it: smaller cells have a smaller overlap, so each component is a subset
    of the universe's.  A time.monotonic() deadline is read before the
    reductions, the component check and the reduced image.
    """
    if r < 2:
        raise ValueError(f"reduction drops an element, needs r >= 2, got r={r}")
    free_images = {images[m] for m in free}
    anchored_images = {images[m] for m in anchored}
    overlap = free_images & anchored_images
    seconds_left(deadline, "the reduced components")
    components = [_reduce(overlap, k - 1)]
    components += [_reduce(cell, k) for cell in boundary]
    if not checked:
        seconds_left(deadline, "the component check")
        for component in components:
            check_member_masks(component, n - k, r - 1, 0)
    reduced = set().union(*components)
    seconds_left(deadline, "the reduced image")
    reduced_image = {_compress_mask(m) for m in reduced}
    return _Derived(free_images | anchored_images, overlap, reduced, reduced_image, components)


def _clause(clause_id: str, n: int, witnesses: list[int]) -> ClauseResult:
    """A clause that passes when it has no witnesses; the witness masks live in ambient n."""
    return ClauseResult(clause_id, not witnesses, tuple(_circset(n, m) for m in witnesses))


def _first_pairs(masks: list[int]) -> list[int]:
    """The first five disjoint pairs (i < j) of masks in lexicographic order, flattened; one walk."""
    pairs: list[int] = []
    for u, v in islice(row_edges(disjointness_rows(masks)), 5):
        pairs += masks[u], masks[v]
    return pairs


class _Table(NamedTuple):
    """Disjointness rows over a universe's masks of one kind, with each mask's index in the rows.

    Row i has bit j set when the masks of indices i and j are disjoint, as
    core.disjointness_rows builds it; any consistent labelling will do, and
    the members' table takes the universe's rows in the search's labels,
    with the masks in reverse order.  Every mask asked about must be in
    index; the table answers for any set of them.
    """

    index: dict[int, int]
    rows: Sequence[int]

    def has_disjoint_pair(self, masks: Iterable[int]) -> bool:
        """Whether two of the masks are disjoint: their rows ORed together meet their own set.

        One pass of C-level calls, no Python loop over the masks and no walk.
        """
        chosen = list(map(self.index.__getitem__, masks))
        vertices = reduce(or_, map((1).__lshift__, chosen), 0)
        return bool(reduce(or_, map(self.rows.__getitem__, chosen), 0) & vertices)


def _table(masks: Sequence[int], rows: Sequence[int]) -> _Table:
    return _Table(dict(zip(masks, count())), rows)


def _disjoint_pairs(masks: Iterable[int], table: _Table | None, *, ordered: bool) -> list[int]:
    """_first_pairs of the masks, which are in lexicographic order when ordered is set.

    Any order answers whether a pair exists, so the pairs are walked, after
    a sort unless ordered, only for masks that have one.  The table answers
    that without a walk; without a table, masks in lexicographic order take
    it from the one walk for their first pairs, and masks in any other
    order from a walk of their own.
    """
    if table is not None:
        if not table.has_disjoint_pair(masks):
            return []
    elif not ordered:
        masks = list(masks)
        if next(row_edges(disjointness_rows(masks)), None) is None:
            return []
    return _first_pairs(masks if ordered else _lex(masks))


def _collision_clause(
    images: dict[int, int], n: int, k: int, deadline: float | None = None
) -> ClauseResult:
    """Sets identified by j-fold compression must differ in exactly two elements of 1..j+1.

    images maps each member to its one-step image, as _partition returns it.
    A time.monotonic() deadline is read, for each j, before the members are
    put in buckets by their j-fold image and before the buckets' pairs are
    walked.
    """
    witnesses: list[int] = []
    masks = list(images)
    folded = list(images.values())
    for j in range(1, k + 1):
        if j > 1:
            folded = [_compress_mask(m) for m in folded]  # the j-fold images, carried forward
        seconds_left(deadline, f"the collision-structure buckets of fold {j}")
        buckets: dict[int, list[int]] = {}
        for m, image in zip(masks, folded):
            buckets.setdefault(image, []).append(m)
        seconds_left(deadline, f"the collision-structure pairs of fold {j}")
        for group in buckets.values():
            for x in range(len(group)):
                for y in range(x + 1, len(group)):
                    diff = group[x] ^ group[y]
                    if diff.bit_count() != 2 or diff >> (j + 1):
                        witnesses += group[x], group[y]
    return _clause("collision-structure", n, witnesses)


class ClauseResult(NamedTuple):
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


class CompressionReport(NamedTuple):
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


def _monotone_clauses(
    images: dict[int, int], d: _Derived, n: int, r: int, k: int, deadline: float | None = None
) -> dict[str, Callable[[], ClauseResult]]:
    """The five clauses that can only improve on a subfamily, by id, each checked when it is called.

    Every family of an (n, r, k) is a subfamily of its universe, and each of
    these clauses reports pairs of members, or members of a derived family,
    that shrink with the family.  A subfamily keeps each member's image, so
    its pairs of members with one j-fold image are among the universe's
    (collision-structure), and its images are among the universe's
    (compressed-separated).  Its cells are subsets of the universe's cells,
    so its overlap (the images of both a free and an anchored member) and
    each of its reduced components are subsets of the universe's; so are
    the shared members of two components (reduced-components-disjoint), the
    reduced family (reduced-separated) and its image
    (reduced-image-separated).  A clause with no witness on the universe
    therefore has none on any family of it.  A time.monotonic() deadline is
    read inside collision-structure, the slowest of them (_collision_clause).
    """
    return {
        "collision-structure": lambda: _collision_clause(images, n, k, deadline),
        "compressed-separated": lambda: _clause(
            "compressed-separated",
            n - 1,
            _lex(m for m in d.images if m.bit_count() != r or not mask_k_separated(m, n - 1, k)),
        ),
        "reduced-components-disjoint": lambda: _clause(
            "reduced-components-disjoint",
            n - k,
            [
                m
                for i, c in enumerate(d.components)
                for later in d.components[i + 1 :]
                for m in _lex(c & later)
            ],
        ),
        "reduced-separated": lambda: _clause(
            "reduced-separated",
            n - k,
            _lex(m for m in d.reduced if not mask_k_separated(m, n - k, k)),
        ),
        "reduced-image-separated": lambda: _clause(
            "reduced-image-separated",
            n - k - 1,
            _lex(m for m in d.reduced_image if not mask_k_separated(m, n - k - 1, k)),
        ),
    }


class _Verdicts(NamedTuple):
    """What the suite works out once on a universe, for every family of it.

    placed: each member's partition cell (0 free, 1 anchored, 2 + i boundary
    cell i) and its one-step image.
    passed: the ids of the monotone clauses that pass on the universe.
    members: the disjointness table of the universe's members, on the
    universe's one kept row set (DisjointnessGraph.reversed_rows), which
    the searches and the sampler read too.  It holds the images too: an
    image is a k-separated r-set of [n-1] (the partition checks it), so
    also of [n], where the gap across n only grows.
    reduced: the disjointness table of the universe's reduced family.
    A family's members, images and reduced family are subsets of the
    universe's (_monotone_clauses says why), so its three intersecting
    clauses look up each of their masks in these.  Each table takes about
    V*V/8 bytes for V masks.
    """

    placed: dict[int, tuple[int, int]]
    passed: frozenset[str]
    members: _Table
    reduced: _Table


def _universe_verdicts(n: int, r: int, k: int, deadline: float | None) -> _Verdicts | None:
    """The (n, r, k) universe's verdicts, built by _build_verdicts and kept (DisjointnessGraph.kept).

    None when the parameters are out of the suite's range (the family's own
    partition or derivation raises for them) or the universe has more than
    DEFAULT_MAX_VERTICES members, and when the universe fails its partition
    or its component check, so that each family is checked, and raises, on
    its own members.  The universe's partition, derivation and monotone
    clauses run, never its intersecting clauses.  A time.monotonic()
    deadline is read while the universe is enumerated, before the partition
    and once per member in it, before and inside the derivation (_derive),
    before the members' cells are kept, before and inside each monotone
    clause (_monotone_clauses), and while the rows of each table are built.
    """
    if k < 1 or r < 2 or n < (k + 1) * r + 1 or count_separated(n, r, k) > DEFAULT_MAX_VERTICES:
        return None
    return separated_universe(n, r, k, DEFAULT_MAX_VERTICES, deadline).kept(_build_verdicts, deadline)


def _build_verdicts(graph: DisjointnessGraph, deadline: float | None) -> _Verdicts | None:
    """_universe_verdicts of a universe in the suite's range: None when it fails a check.

    A ResourceLimitError from the deadline is raised, not taken for a failed
    check, so that nothing is kept.
    """
    n, r, k = graph.n, graph.r, graph.k
    seconds_left(deadline, "the compression verdicts")
    try:
        free, anchored, boundary, images = _partition(graph.masks, n, r, k, deadline)
        seconds_left(deadline, "the compression derivation")
        d = _derive(free, anchored, boundary, images, n, r, k, deadline=deadline)
    except ResourceLimitError:  # a RuntimeError too
        raise
    except (ValueError, RuntimeError):
        return None
    seconds_left(deadline, "the members' cells")
    cells = [free, anchored, *boundary]
    placed = {m: (c, images[m]) for c, cell in enumerate(cells) for m in cell}
    passed = set()
    for clause_id, check in _monotone_clauses(images, d, n, r, k, deadline).items():
        seconds_left(deadline, f"the {clause_id} verdict")
        if check().passed:
            passed.add(clause_id)
    reduced = tuple(d.reduced)
    return _Verdicts(
        placed,
        frozenset(passed),
        _table(graph.masks[::-1], graph.reversed_rows(deadline)),
        _table(reduced, tuple(disjointness_rows(reduced, deadline))),
    )


def _placed_partition(
    masks: Iterable[int], placed: dict[int, tuple[int, int]], k: int
) -> tuple[list[int], list[int], list[list[int]], dict[int, int]]:
    """_partition of members of a universe, each placed by the universe's verdicts, none tested again."""
    cells: list[list[int]] = [[] for _ in range(k + 3)]
    images: dict[int, int] = {}
    for m in masks:
        cell, images[m] = placed[m]
        cells[cell].append(m)
    return cells[0], cells[1], cells[2:], images


def verify_compression_suite(family: SetFamily, *, deadline: float | None = None) -> CompressionReport:
    """Check every structural clause of the compression argument on one family.

    Intended for intersecting families; a non-intersecting input fails the
    first clause and usually some later ones, all reported with witnesses
    rather than raised.  compressed-separated cannot fail: it restates the
    exhaustiveness check of the partition, which raises RuntimeError first.
    It is kept so the report lists every claim the size bound rests on.  The
    partition raises ValueError unless k >= 1 and n >= (k+1)r + 1, and the
    derivation unless r >= 2.

    When the universe has at most DEFAULT_MAX_VERTICES members, it keeps its
    verdicts (_universe_verdicts).  A family then reads its partition from
    them and skips the component check, and each monotone clause that passed
    on the universe passes here with no witnesses (_monotone_clauses says
    why).  The three intersecting clauses and size-identity are always
    checked on the family itself, and so is every clause that failed on the
    universe.  The intersecting clauses read the verdicts' tables, and walk
    the family's pairs only when a table reports one.  A time.monotonic()
    deadline is read while the verdicts are built (_universe_verdicts), and
    not again.
    """
    n, r, k = family.n, family.r, family.k
    masks = [s.mask for s in family.sets]  # in lexicographic order, as a SetFamily keeps them
    verdicts = _universe_verdicts(n, r, k, deadline)
    if verdicts is None:
        free, anchored, boundary, images = _partition(masks, n, r, k)
        passed, members, reduced = frozenset(), None, None
    else:
        free, anchored, boundary, images = _placed_partition(masks, verdicts.placed, k)
        passed, members, reduced = verdicts.passed, verdicts.members, verdicts.reduced
    d = _derive(free, anchored, boundary, images, n, r, k, checked=verdicts is not None)
    monotone = {
        clause_id: ClauseResult(clause_id, True, ()) if clause_id in passed else check()
        for clause_id, check in _monotone_clauses(images, d, n, r, k).items()
    }
    total = len(masks)
    sizes = f"{total} = {len(d.images)} + {len(d.reduced)}"
    clauses = (
        _clause("input-intersecting", n, _disjoint_pairs(masks, members, ordered=True)),
        monotone["collision-structure"],
        monotone["compressed-separated"],
        _clause("compressed-intersecting", n - 1, _disjoint_pairs(d.images, members, ordered=False)),
        monotone["reduced-components-disjoint"],
        _clause("reduced-intersecting", n - k, _disjoint_pairs(d.reduced, reduced, ordered=False)),
        monotone["reduced-separated"],
        monotone["reduced-image-separated"],
        ClauseResult(
            "size-identity", total == len(d.images) + len(d.reduced), (), detail=sizes
        ),
    )
    return CompressionReport(n=n, r=r, k=k, clauses=clauses)
