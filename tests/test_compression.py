"""Compression map, partition cells, derived families, and the clause suite, on the mask engine."""

import json
import random
import time
from pathlib import Path

import pytest

import sepekr.core
from sepekr import (
    CircSet,
    ResourceLimitError,
    SetFamily,
    compression,
    enumerate_separated,
    is_intersecting,
    random_maximal_intersecting,
    star_family,
    verify_compression_suite,
)
from sepekr.compression import ClauseResult, _compress_iter_mask, _compress_mask
from sepekr.core import DEFAULT_MAX_VERTICES, mask_elems, separated_universe

from helpers import (
    CountingClock,
    brute_separated,
    compression_oracle,
    derived_oracle,
    exceptional_members,
    greedy_maximal_intersecting,
    kept_by_name,
)

CLAUSE_IDS = [
    "input-intersecting",
    "collision-structure",
    "compressed-separated",
    "compressed-intersecting",
    "reduced-components-disjoint",
    "reduced-intersecting",
    "reduced-separated",
    "reduced-image-separated",
    "size-identity",
]
MONOTONE_IDS = [
    "collision-structure",
    "compressed-separated",
    "reduced-components-disjoint",
    "reduced-separated",
    "reduced-image-separated",
]


@pytest.fixture(autouse=True)
def cold_universe():
    """Each test starts and ends with an empty universe cache.

    So no compression verdicts kept by an earlier test answer it, and none
    built under a test's monkeypatched fault outlive it.
    """
    sepekr.core._universe.cache_clear()
    yield
    sepekr.core._universe.cache_clear()


def intersecting_subfamilies(n, r, k):
    """Every intersecting subfamily of the full universe, smallest first."""
    universe = enumerate_separated(n, r, k).sets
    out = []

    def grow(start, chosen):
        out.append(SetFamily(n, r, k, tuple(chosen)))
        for j in range(start, len(universe)):
            if all(universe[j].mask & c.mask for c in chosen):
                chosen.append(universe[j])
                grow(j + 1, chosen)
                chosen.pop()

    grow(0, [])
    return out


def mask(elems):
    """The bitmask of a set: bit a-1 for each element a."""
    return sum(1 << (a - 1) for a in elems)


def partition(family):
    """The compression cells of a family's masks, as the suite's partition splits them."""
    return compression._partition([s.mask for s in family], family.n, family.r, family.k)


def derive_families(family):
    """The derived families of a family's masks, as the suite's partition and derivation make them."""
    return compression._derive(*partition(family), family.n, family.r, family.k)


def keys(masks):
    """Masks as the sorted list of their element tuples."""
    return sorted(map(mask_elems, masks))


def verdicts(n, r, k):
    """The compression verdicts kept on the cached (n, r, k) universe, or None."""
    return kept_by_name(separated_universe(n, r, k, DEFAULT_MAX_VERTICES)).get("_build_verdicts")


# === the map itself ===


def test_compress_examples():
    assert _compress_mask(mask((2, 5, 9))) == mask((1, 4, 8))
    assert _compress_mask(mask((1, 4))) == mask((1, 3))
    assert _compress_mask(mask((1, 2, 5))) == mask((1, 4))  # 1 and 2 merge


def test_compress_iter_examples():
    assert _compress_iter_mask(mask((1, 4, 7)), 2) == mask((1, 2, 5))
    a = mask((2, 5, 8))
    assert _compress_iter_mask(a, 0) == a
    assert _compress_iter_mask(a, 1) == _compress_mask(a)
    assert _compress_iter_mask(a, 7) == mask((1,))  # every element folds onto 1


def test_compress_iter_equals_the_j_fold_compress():
    # every r-set of [n], n <= 12, r <= 4, for every j from 0 to n, against x -> max(1, x - j)
    for n in range(1, 13):
        for r in range(1, min(n, 4) + 1):
            for a in brute_separated(n, r, 0):
                images = [mask(a)]
                for _ in range(n):
                    images.append(_compress_mask(images[-1]))
                assert [_compress_iter_mask(mask(a), j) for j in range(n + 1)] == images, a
                assert images == [mask({max(1, x - j) for x in a}) for j in range(n + 1)], a


def test_compress_merges_exactly_when_1_and_2_present():
    for n in (5, 6, 7):
        for r in (2, 3):
            for s in brute_separated(n, r, 0):
                image = _compress_mask(mask(s))
                assert image >> (n - 1) == 0  # the image lies in [n-1]
                if 1 in s and 2 in s:
                    assert image.bit_count() == r - 1
                else:
                    assert image.bit_count() == r


def test_compress_preserves_intersection():
    # if A and B share x, the images share the image of x
    universe = [mask(a) for a in brute_separated(7, 3, 0)]
    for a in universe:
        for b in universe:
            if a & b:
                assert _compress_mask(a) & _compress_mask(b)


def test_collision_structure_over_whole_universes():
    # sets identified by j-fold compression differ in exactly two of 1..j+1
    for n, r, k in [(7, 2, 1), (8, 2, 1), (9, 3, 1), (9, 2, 2), (11, 3, 2), (11, 2, 3)]:
        universe = brute_separated(n, r, k)
        for j in range(1, k + 1):
            buckets = {}
            for a in universe:
                buckets.setdefault(_compress_iter_mask(mask(a), j), []).append(a)
            for group in buckets.values():
                for x in range(len(group)):
                    for y in range(x + 1, len(group)):
                        diff = set(group[x]) ^ set(group[y])
                        assert len(diff) == 2, (group[x], group[y])
                        assert max(diff) <= j + 1, (group[x], group[y])


def test_collision_clause_compresses_each_member_once_per_step(monkeypatch):
    # the j-fold image is the (j-1)-fold image compressed once more, from the one-step
    # images the partition made: k - 1 calls per member
    import sepekr.compression

    family = star_family(20, 4, 2, 1)
    assert len(family) == 165
    calls = []
    real = sepekr.compression._compress_mask
    images = {s.mask: real(s.mask) for s in family}

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr("sepekr.compression._compress_mask", counted)
    result = sepekr.compression._collision_clause(images, family.n, family.k)
    assert result.passed and result.witnesses == ()
    assert len(calls) == 165 * (2 - 1)


# maximal intersecting families with free, anchored and boundary members in every cell,
# and a non-empty overlap
CELL_FAMILIES = {
    (9, 3, 1): [
        (1, 3, 7), (1, 5, 7), (2, 5, 7), (2, 7, 9), (3, 5, 7), (3, 5, 9), (3, 7, 9), (4, 7, 9),
        (5, 7, 9),
    ],
    (13, 3, 2): [
        (1, 4, 7), (1, 7, 10), (1, 7, 11), (2, 7, 10), (2, 7, 11), (2, 7, 12), (3, 7, 10),
        (3, 7, 11), (3, 7, 12), (3, 7, 13), (4, 7, 10), (4, 7, 11), (4, 7, 12), (4, 7, 13),
        (7, 10, 13),
    ],
}


@pytest.mark.parametrize("n, r, k", list(CELL_FAMILIES))
def test_the_suite_compresses_each_member_once_per_step(monkeypatch, n, r, k):
    # on its own members: once in the partition, k - 1 more times in the collision
    # clause, and once per member of the reduced family for its image.  The verdicts
    # are built that way once from the universe's members; a family whose verdicts are
    # kept then compresses only its reduced members.
    import sepekr.compression

    family = SetFamily(n, r, k, tuple(CircSet(n, m) for m in CELL_FAMILIES[n, r, k]))
    free, anchored, boundary, _ = partition(family)
    assert free and anchored and all(boundary) and derive_families(family).overlap
    universe = enumerate_separated(n, r, k)
    reduced = derive_families(family).reduced
    universe_reduced = derive_families(universe).reduced
    calls = []
    real = sepekr.compression._compress_mask

    def counted(m):
        calls.append(m)
        return real(m)

    sepekr.core._universe.cache_clear()  # so that the verdicts are built in this call
    monkeypatch.setattr("sepekr.compression._compress_mask", counted)
    assert verify_compression_suite(family).passed
    assert len(calls) == len(universe) * k + len(universe_reduced) + len(reduced)
    calls.clear()
    assert verify_compression_suite(family).passed
    assert len(calls) == len(reduced)
    calls.clear()
    monkeypatch.setattr("sepekr.compression.DEFAULT_MAX_VERTICES", 0)  # no verdicts
    assert verify_compression_suite(family).passed
    assert len(calls) == len(family) * k + len(reduced)


def test_the_suite_walks_the_input_once(monkeypatch):
    # building the verdicts walks no pairs; on kept verdicts an intersecting family is
    # answered by the tables alone, and a family with a disjoint pair walks its input,
    # which a SetFamily keeps in lexicographic order, once, without a sort.  Without
    # verdicts the input is walked once too.
    family = enumerate_separated(9, 2, 1)
    masks = [s.mask for s in family]
    built, walked = [], []
    real_rows, real_edges = compression.disjointness_rows, compression.row_edges

    def counted_rows(of, deadline=None):
        built.append(list(of))
        return real_rows(of, deadline)

    def counted_edges(rows, deadline=None):
        walked.append(rows)
        return real_edges(rows, deadline)

    monkeypatch.setattr("sepekr.compression.disjointness_rows", counted_rows)
    monkeypatch.setattr("sepekr.compression.row_edges", counted_edges)
    assert compression._universe_verdicts(9, 2, 1, None) is not None
    assert walked == []
    assert len(built) == 1  # the reduced family's table; the members' rows are the universe's
    built.clear()
    assert verify_compression_suite(star_family(9, 2, 1, 1)).passed
    assert built == [] and walked == []
    report = verify_compression_suite(family)
    assert built.count(masks) == 1
    clause = report.clause("input-intersecting")
    assert not clause.passed
    assert clause.witnesses[:2] == (CircSet(9, (1, 3)), CircSet(9, (2, 4)))
    built.clear()
    monkeypatch.setattr("sepekr.compression.DEFAULT_MAX_VERTICES", 0)  # no verdicts
    assert verify_compression_suite(family) == report
    assert built.count(masks) == 1


# === partition ===


def test_partition_star_6_2_1():
    free, anchored, boundary, images = partition(star_family(6, 2, 1, 1))
    assert keys(free) == []
    assert keys(anchored) == [(1, 4), (1, 5)]
    assert keys(boundary[0]) == [(1, 3)]
    assert keys(boundary[1]) == []
    assert len(boundary) == 2  # k+1 boundary cells
    assert {mask_elems(m): mask_elems(i) for m, i in images.items()} == {
        (1, 3): (1, 2), (1, 4): (1, 3), (1, 5): (1, 4),
    }


def test_partition_cell_placement_examples():
    fam = SetFamily(6, 2, 1, (CircSet(6, (2, 4)), CircSet(6, (2, 6))))
    free, anchored, boundary, _ = partition(fam)
    assert keys(free) == [(2, 4)]
    assert keys(anchored) == keys(boundary[0]) == []
    assert keys(boundary[1]) == [(2, 6)]


def test_partition_rejects_bad_parameters():
    with pytest.raises(ValueError):
        partition(enumerate_separated(6, 2, 0))  # k = 0
    with pytest.raises(ValueError):
        partition(enumerate_separated(4, 2, 1))  # n = (k+1)r, too small


def test_partition_covers_every_member_exactly_once():
    rng = random.Random(5)
    for k in (1, 2):
        for r in (2, 3):
            for n in range((k + 1) * r + 1, (k + 1) * r + 5):
                universe = enumerate_separated(n, r, k).sets
                for _ in range(5):
                    size = rng.randint(1, min(8, len(universe)))
                    fam = SetFamily(n, r, k, tuple(rng.sample(universe, size)))
                    free, anchored, boundary, images = partition(fam)
                    cells = [m for cell in [free, anchored, *boundary] for m in cell]
                    assert sorted(cells) == sorted(s.mask for s in fam)
                    assert len(cells) == len(set(cells))
                    assert len(boundary) == k + 1
                    assert images == {s.mask: _compress_mask(s.mask) for s in fam}


# === derived families ===


def test_derive_star_6_2_1():
    derived = derive_families(star_family(6, 2, 1, 1))
    assert len(derived.overlap) == 0
    assert keys(derived.reduced) == [(2,)]  # on [5]
    assert keys(derived.reduced_image) == [(1,)]  # on [4]
    assert keys(derived.images) == [(1, 3), (1, 4)]
    assert len(derived.components) == 3  # overlap piece plus k+1 boundary pieces


def test_derive_overlap_example():
    # {2,5} from the free cell and {1,5} from the anchored cell share the image {1,4}
    fam = SetFamily(7, 2, 1, (CircSet(7, (2, 5)), CircSet(7, (1, 5))))
    derived = derive_families(fam)
    assert keys(derived.overlap) == [(1, 4)]
    assert keys(derived.reduced) == [(4,)]  # on [6]
    assert keys(derived.images) == [(1, 4)]


def test_derive_rejects_r1():
    # and every family the partition rejects: k = 0, and n = (k+1)r, too small
    for n, r, k in [(5, 1, 1), (7, 2, 0), (4, 2, 1)]:
        with pytest.raises(ValueError):
            derive_families(enumerate_separated(n, r, k))


@pytest.mark.parametrize(
    "target, fault, error, message",
    [
        # the anchor stays in every reduced member: the component check fires
        (
            "_reduce",
            lambda masks, j: {compression._compress_iter_mask(m, j) for m in masks},
            ValueError,
            "has 3 elements",
        ),
        # compression forgets the anchor: the partition's image check fires
        ("_compress_mask", lambda m: m >> 1, RuntimeError, "fits no cell"),
    ],
    ids=["anchor-kept", "anchor-lost"],
)
@pytest.mark.parametrize("entry", [derive_families, verify_compression_suite])
def test_each_derived_fact_has_a_check_that_fires(
    monkeypatch, target, fault, error, message, entry
):
    monkeypatch.setattr(compression, target, fault)
    with pytest.raises(error, match=message):
        entry(star_family(9, 3, 1, 1))


def test_derive_no_violations_on_intersecting_families():
    # the claims about the derived families hold, as checked by the suite
    rng = random.Random(11)
    for k in (1, 2):
        for r in (2, 3):
            for n in range((k + 1) * r + 1, (k + 1) * r + 5):
                for _ in range(6):
                    fam = random_maximal_intersecting(n, r, k, rng)
                    derived = derive_families(fam)
                    report = verify_compression_suite(fam)
                    for clause_id in (
                        "reduced-components-disjoint",
                        "reduced-separated",
                        "reduced-image-separated",
                    ):
                        clause = report.clause(clause_id)
                        assert clause.passed and clause.witnesses == (), (n, r, k, clause_id)
                    # (r-1)-sets of [n-k]
                    assert all(m.bit_count() == r - 1 and not m >> (n - k) for m in derived.reduced)


# === the clause suite ===


def test_suite_clause_order_is_fixed():
    report = verify_compression_suite(star_family(8, 2, 1, 1))
    assert [c.clause_id for c in report.clauses] == CLAUSE_IDS
    assert report.n == 8 and report.r == 2 and report.k == 1


def test_suite_passes_on_stars_with_size_identity():
    cases = [
        (star_family(10, 3, 1, 1), "15 = 10 + 5"),
        (star_family(9, 2, 2, 1), "4 = 3 + 1"),
        (star_family(6, 2, 1, 1), "3 = 2 + 1"),
    ]
    for fam, identity in cases:
        report = verify_compression_suite(fam)
        assert report.passed
        assert report.clause("size-identity").detail == identity


def test_suite_passes_on_exceptional_families():
    for r in (2, 3, 4):
        n = 2 * r + 2
        for i in range(1, r // 2 + 1):
            members = exceptional_members(r, i)
            report = verify_compression_suite(SetFamily(n, r, 1, tuple(CircSet(n, m) for m in members)))
            assert report.passed, (r, i)


def test_suite_flags_non_intersecting_input():
    fam = SetFamily(6, 2, 1, (CircSet(6, (1, 3)), CircSet(6, (2, 4))))
    report = verify_compression_suite(fam)
    failing = [c.clause_id for c in report.clauses if not c.passed]
    assert failing == ["input-intersecting"]
    bad = report.clause("input-intersecting")
    assert {w.elems for w in bad.witnesses} == {(1, 3), (2, 4)}

    # more than five disjoint pairs: the first five in (i, j) order are the witnesses
    fam = SetFamily(8, 2, 1, tuple(CircSet(8, e) for e in [(1, 3), (2, 4), (5, 7), (6, 8)]))
    report = verify_compression_suite(fam)
    assert [w.elems for w in report.clause("input-intersecting").witnesses] == [
        (1, 3), (2, 4),
        (1, 3), (5, 7),
        (1, 3), (6, 8),
        (2, 4), (5, 7),
        (2, 4), (6, 8),
    ]


def test_suite_flags_disjoint_reduced_members():
    fam = SetFamily(7, 2, 1, (CircSet(7, (1, 3)), CircSet(7, (2, 7))))
    report = verify_compression_suite(fam)
    failing = [c.clause_id for c in report.clauses if not c.passed]
    assert failing == ["input-intersecting", "reduced-intersecting"]


def test_disjoint_pair_witnesses_stay_lexicographic_when_the_set_order_is_not():
    # {1,3,8} and {2,6,9} reduce to {2,7} and {5,8} on [8], and the reduced
    # mask set iterates them the other way round; pairs are sorted on failure
    members = [(1, 3, 8), (2, 6, 9)]
    family = SetFamily(9, 3, 1, tuple(CircSet(9, m) for m in members))
    masks = [s.mask for s in family]
    reduced = compression._derive(*compression._partition(masks, 9, 3, 1), 9, 3, 1).reduced
    assert list(reduced) != compression._lex(reduced)
    report = verify_compression_suite(family)
    witnesses = report.clause("reduced-intersecting").witnesses
    assert [(w.n, w.elems) for w in witnesses] == [(8, (2, 7)), (8, (5, 8))]
    got = [
        (c.clause_id, c.passed, [(w.n, w.elems) for w in c.witnesses], c.detail)
        for c in report.clauses
    ]
    assert got == compression_oracle(9, 3, 1, members)


def test_suite_failure_reports_match_golden_file():
    """Each family in tests/data/compression_failures.json still gets its recorded report.

    The families are non-intersecting: between them they fail input-intersecting,
    compressed-intersecting and reduced-intersecting, alone and together, and
    hit the 10-witness cap, so witness content and order are pinned.
    """
    path = Path(__file__).resolve().parent / "data" / "compression_failures.json"
    cases = json.loads(path.read_text())
    failing = set()
    for case in cases:
        data = case["family"]
        n = data["n"]
        fam = SetFamily(n, data["r"], data["k"], tuple(CircSet(n, e) for e in data["sets"]))
        report = verify_compression_suite(fam).to_json_dict()
        assert report == case["report"], fam.to_line()
        failing.update(c["clause_id"] for c in report["clauses"] if not c["passed"])
    assert failing == {"input-intersecting", "compressed-intersecting", "reduced-intersecting"}
    assert any(len(c["witnesses"]) == 10 for case in cases for c in case["report"]["clauses"])


def test_suite_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_compression_suite(enumerate_separated(8, 2, 0))
    with pytest.raises(ValueError):
        verify_compression_suite(enumerate_separated(6, 1, 1))
    with pytest.raises(ValueError):
        verify_compression_suite(enumerate_separated(4, 2, 1))


def test_suite_report_lookup_and_json():
    report = verify_compression_suite(star_family(7, 2, 1, 1))
    data = report.to_json_dict()
    assert data["n"] == 7 and data["passed"] is True
    assert [c["clause_id"] for c in data["clauses"]] == CLAUSE_IDS
    assert all(c["passed"] for c in data["clauses"])
    with pytest.raises(KeyError):
        report.clause("no-such-clause")


def test_suite_exhaustive_on_tiny_universes():
    # every intersecting subfamily, not just the maximal ones
    for n, r, k in [(6, 2, 1), (7, 2, 1), (9, 2, 2)]:
        for fam in intersecting_subfamilies(n, r, k):
            report = verify_compression_suite(fam)
            assert report.passed, fam.to_line()


def test_suite_on_random_maximal_families():
    rng = random.Random(3)
    for k in (1, 2):
        for r in (2, 3):
            for n in range((k + 1) * r + 1, 11):
                for _ in range(10):
                    fam = random_maximal_intersecting(n, r, k, rng)
                    assert is_intersecting(fam)
                    report = verify_compression_suite(fam)
                    assert report.passed, fam.to_line()


def oracle_cases():
    """(n, r, k, members) for whole universes, the empty family, one member, random
    maximal families, their random subfamilies, random (mostly non-intersecting)
    families, and families with exactly one disjoint pair: a maximal family and the
    first set of the universe that misses exactly one of its members, when there is
    one.  (13, 3, 3) and (5, 2, 1) have n = (k+1)r + 1."""
    rng = random.Random(2024)
    instances = [
        (7, 2, 1), (8, 2, 1), (10, 3, 1), (9, 2, 2), (11, 3, 2), (11, 2, 3), (13, 3, 3), (5, 2, 1)
    ]
    for n, r, k in instances:
        universe = brute_separated(n, r, k)
        families = [universe, [], universe[-1:]]
        for _ in range(8):
            maximal = greedy_maximal_intersecting(n, r, k, rng)
            families.append(maximal)
            families.append(rng.sample(maximal, rng.randint(1, len(maximal))))
            families.append(rng.sample(universe, rng.randint(2, min(12, len(universe)))))
            families += [
                maximal + [u]
                for u in universe
                if sum(not set(u) & set(m) for m in maximal) == 1 and u not in maximal
            ][:1]
        for members in families:
            yield n, r, k, members


def test_suite_agrees_with_the_independent_oracle():
    # every clause's verdict, witnesses (with their ambient) and detail
    failed = set()
    for n, r, k, members in oracle_cases():
        family = SetFamily(n, r, k, tuple(CircSet(n, m) for m in members))
        report = verify_compression_suite(family)
        got = [
            (c.clause_id, c.passed, [(w.n, w.elems) for w in c.witnesses], c.detail)
            for c in report.clauses
        ]
        assert got == compression_oracle(n, r, k, members), family.to_line()
        failed.update(c.clause_id for c in report.clauses if not c.passed)
    assert failed == {"input-intersecting", "compressed-intersecting", "reduced-intersecting"}


def test_the_verdicts_change_no_report(monkeypatch):
    # the same families checked on their own, with the universe's verdicts forced off by
    # a vertex limit of 0, give the oracle's report, and the report the verdicts give
    cases = list(oracle_cases())
    families = [SetFamily(n, r, k, [CircSet(n, m) for m in members]) for n, r, k, members in cases]
    on_verdicts = []
    for family in families:
        on_verdicts.append(verify_compression_suite(family).to_json_dict())
        assert verdicts(family.n, family.r, family.k) is not None
    monkeypatch.setattr("sepekr.compression.DEFAULT_MAX_VERTICES", 0)
    one_pair = set()
    for (n, r, k, members), family, expected in zip(cases, families, on_verdicts):
        report = verify_compression_suite(family)
        got = [
            (c.clause_id, c.passed, [(w.n, w.elems) for w in c.witnesses], c.detail)
            for c in report.clauses
        ]
        assert got == compression_oracle(n, r, k, members), family.to_line()
        assert report.to_json_dict() == expected, family.to_line()
        if len(report.clause("input-intersecting").witnesses) == 2:
            one_pair.update(c.clause_id for c in report.clauses if len(c.witnesses) == 2)
    # each table reports a single pair on some family, and the clause walks for it
    assert one_pair == {"input-intersecting", "compressed-intersecting", "reduced-intersecting"}


@pytest.mark.parametrize("clause_id", MONOTONE_IDS)
def test_a_clause_that_fails_on_the_universe_is_checked_on_each_family(monkeypatch, clause_id):
    # a fault that adds the lexicographically first member of what the clause checks to
    # its witnesses fails the clause on the universe; each family then reports the
    # witnesses it gives without verdicts, never a pass read from the universe
    real = compression._monotone_clauses

    def faulty(images, d, n, r, k, deadline=None):
        checks = real(images, d, n, r, k, deadline)
        check = checks[clause_id]

        def wrong():
            first = [CircSet(n, mask_elems(m)) for m in compression._lex(images)[:1]]
            witnesses = check().witnesses + tuple(first)
            return ClauseResult(clause_id, not witnesses, witnesses)

        checks[clause_id] = wrong
        return checks

    monkeypatch.setattr(compression, "_monotone_clauses", faulty)
    for n, r, k in [(9, 3, 1), (11, 2, 3)]:
        rng = random.Random(f"fault:{n}:{r}:{k}")
        universe = enumerate_separated(n, r, k)
        families = [universe, SetFamily(n, r, k, universe.sets[:1]), star_family(n, r, k, 2)]
        families += [random_maximal_intersecting(n, r, k, rng) for _ in range(3)]
        families += [SetFamily(n, r, k, rng.sample(universe.sets, 6)) for _ in range(3)]
        reports = [verify_compression_suite(family) for family in families]
        assert verdicts(n, r, k).passed == set(MONOTONE_IDS) - {clause_id}
        assert all(not report.clause(clause_id).passed for report in reports)
        with monkeypatch.context() as alone:
            alone.setattr("sepekr.compression.DEFAULT_MAX_VERTICES", 0)
            assert [verify_compression_suite(family) for family in families] == reports


def test_collision_structure_flags_a_pair_that_differs_outside_the_window():
    # Kills the mutant that drops the position test `diff >> (j + 1)` from
    # _collision_clause, so that two members with one j-fold image that differ in two
    # elements past j + 1 pass.  No k-separated family has such a pair, so the input is
    # a crafted image: {1,5,7} is given the one-step image of {1,4,7}, and the two
    # differ in 4 and 5, two elements, both outside 1..2.
    a, b = CircSet(9, (1, 4, 7)), CircSet(9, (1, 5, 7))
    free, anchored, boundary, images = partition(SetFamily(9, 3, 1, (a, b)))
    images[b.mask] = images[a.mask]
    derived = compression._derive(free, anchored, boundary, images, 9, 3, 1)
    checks = compression._monotone_clauses(images, derived, 9, 3, 1)
    results = {clause_id: check() for clause_id, check in checks.items()}
    assert [clause_id for clause_id, c in results.items() if not c.passed] == ["collision-structure"]
    clause = results["collision-structure"]
    assert clause.clause_id == "collision-structure" and clause.passed is False
    assert clause.witnesses == (a, b)


def _report_with_and_without_verdicts(monkeypatch, family):
    """The suite's report on family, built with the universe's verdicts and the same without them."""
    report = verify_compression_suite(family)
    assert verdicts(family.n, family.r, family.k) is not None
    with monkeypatch.context() as alone:
        alone.setattr("sepekr.compression.DEFAULT_MAX_VERTICES", 0)  # no verdicts
        assert verify_compression_suite(family) == report
    return report


def _report_under_a_faulty_derivation(monkeypatch, fault):
    """The suite's report on star_family(9, 3, 1, 1) when _derive's result goes through fault.

    The universe's verdicts are built under the fault too; the report is
    checked to be the same without them.
    """
    real = compression._derive
    monkeypatch.setattr(compression, "_derive", lambda *args, **kwargs: fault(real(*args, **kwargs)))
    return _report_with_and_without_verdicts(monkeypatch, star_family(9, 3, 1, 1))


def test_input_intersecting_flags_a_member_off_the_centre(monkeypatch):
    # Kills the mutant whose input-intersecting never reports a witness.  The clause
    # reads the input alone, so the fault is in the input: star_family(9, 3, 1, 1) with
    # {1,4,6} moved off the centre to {2,4,6}.  One compression step sends both to
    # {1,3,5}, so the images, the reduced family and every other clause are the star's.
    members = [s for s in star_family(9, 3, 1, 1) if s.elems != (1, 4, 6)] + [CircSet(9, (2, 4, 6))]
    report = _report_with_and_without_verdicts(monkeypatch, SetFamily(9, 3, 1, tuple(members)))
    assert [c.clause_id for c in report.clauses if not c.passed] == ["input-intersecting"]
    clause = report.clause("input-intersecting")
    assert clause.clause_id == "input-intersecting" and clause.passed is False
    missed = [(1, 3, 5), (1, 3, 7), (1, 3, 8), (1, 5, 7), (1, 5, 8)]  # the star's members {2,4,6} misses
    assert clause.witnesses == tuple(CircSet(9, elems) for m in missed for elems in (m, (2, 4, 6)))


def test_compressed_intersecting_flags_an_image_off_the_anchor(monkeypatch):
    # Kills the mutant whose compressed-intersecting never reports a witness.  The
    # images of an intersecting family intersect, so the fault is a derivation that
    # replaces the image {1,3,6} with {2,4,6} on [8], which avoids the anchor 1 and
    # misses three other images.  The image count, and with it size-identity, is
    # unchanged, and {2,4,6} is a 1-separated 3-set, so compressed-separated passes.
    report = _report_under_a_faulty_derivation(
        monkeypatch, lambda d: d._replace(images=d.images - {mask((1, 3, 6))} | {mask((2, 4, 6))})
    )
    assert [c.clause_id for c in report.clauses if not c.passed] == ["compressed-intersecting"]
    clause = report.clause("compressed-intersecting")
    assert clause.clause_id == "compressed-intersecting" and clause.passed is False
    assert clause.witnesses == tuple(
        CircSet(8, elems) for elems in [(1, 3, 5), (2, 4, 6), (1, 3, 7), (2, 4, 6), (1, 5, 7), (2, 4, 6)]
    )


def test_reduced_intersecting_flags_a_member_off_the_common_point(monkeypatch):
    # Kills the mutant whose reduced-intersecting never reports a witness.  The star's
    # reduced family {2,4} {2,5} {2,6} {2,7} on [8] shares 2, so the fault is a
    # derivation that replaces {2,7} with {3,8}, which misses the other three.  The
    # reduced count is unchanged, {3,8} is 1-separated, and the components and the
    # reduced image are the star's, so no other clause fails.
    report = _report_under_a_faulty_derivation(
        monkeypatch, lambda d: d._replace(reduced=d.reduced - {mask((2, 7))} | {mask((3, 8))})
    )
    assert [c.clause_id for c in report.clauses if not c.passed] == ["reduced-intersecting"]
    clause = report.clause("reduced-intersecting")
    assert clause.clause_id == "reduced-intersecting" and clause.passed is False
    assert clause.witnesses == tuple(
        CircSet(8, elems) for elems in [(2, 4), (3, 8), (2, 5), (3, 8), (2, 6), (3, 8)]
    )


def test_reduced_image_separated_flags_a_crowded_image(monkeypatch):
    # Kills the mutant of _monotone_clauses whose reduced-image-separated never reports
    # a witness.  No family's reduced image fails the clause, so the fault is a
    # derivation that adds {1,2}, not 1-separated on [7], to every reduced image; the
    # other clauses read the derivation unchanged.
    report = _report_under_a_faulty_derivation(
        monkeypatch, lambda d: d._replace(reduced_image=d.reduced_image | {0b11})
    )
    assert [c.clause_id for c in report.clauses if not c.passed] == ["reduced-image-separated"]
    clause = report.clause("reduced-image-separated")
    assert clause.clause_id == "reduced-image-separated" and clause.passed is False
    assert clause.witnesses == (CircSet(7, (1, 2)),)


def test_reduced_components_disjoint_flags_a_shared_member(monkeypatch):
    # Kills the mutant of _monotone_clauses whose reduced-components-disjoint never
    # reports a witness.  No family's components share a member, so the fault is a
    # derivation whose overlap component also yields {2,4} on [8], which the first
    # boundary component yields too; the reduced family, their union, is unchanged.
    report = _report_under_a_faulty_derivation(
        monkeypatch, lambda d: d._replace(components=[d.components[0] | {0b1010}, *d.components[1:]])
    )
    assert [c.clause_id for c in report.clauses if not c.passed] == ["reduced-components-disjoint"]
    clause = report.clause("reduced-components-disjoint")
    assert clause.clause_id == "reduced-components-disjoint" and clause.passed is False
    assert clause.witnesses == (CircSet(8, (2, 4)),)


def test_reduced_separated_flags_a_crowded_member(monkeypatch):
    # Kills the mutant of _monotone_clauses whose reduced-separated never reports a
    # witness.  No family's reduced family fails the clause, so the fault is a
    # derivation that adds {2,3}, not 1-separated on [8], to the overlap component and
    # so to the reduced family; the reduced image is unchanged.  The reduced family then
    # has one member more than the size identity counts, and {2,3} meets every other
    # reduced member in 2, so size-identity fails too and reduced-intersecting does not.
    report = _report_under_a_faulty_derivation(
        monkeypatch,
        lambda d: d._replace(
            reduced=d.reduced | {0b110}, components=[d.components[0] | {0b110}, *d.components[1:]]
        ),
    )
    assert [c.clause_id for c in report.clauses if not c.passed] == ["reduced-separated", "size-identity"]
    clause = report.clause("reduced-separated")
    assert clause.clause_id == "reduced-separated" and clause.passed is False
    assert clause.witnesses == (CircSet(8, (2, 3)),)
    assert report.clause("size-identity").detail == "10 = 6 + 5"


def test_size_identity_flags_a_lost_image(monkeypatch):
    # Kills the mutant whose size-identity always passes.  No family's sizes break the
    # identity, so the fault is a derivation that drops the lexicographically first
    # image, {1,3,5} on [8]; compressed-separated and compressed-intersecting then read
    # a subset of the images, which has no witness where the images had none.
    report = _report_under_a_faulty_derivation(
        monkeypatch, lambda d: d._replace(images=d.images - set(compression._lex(d.images)[:1]))
    )
    assert [c.clause_id for c in report.clauses if not c.passed] == ["size-identity"]
    clause = report.clause("size-identity")
    assert clause.clause_id == "size-identity" and clause.passed is False
    assert clause.witnesses == ()
    assert clause.detail == "10 = 5 + 4"


def test_the_suite_reads_the_deadline_before_it_builds_the_verdicts():
    family = star_family(9, 3, 1, 1)
    with pytest.raises(ResourceLimitError, match="before the compression verdicts"):
        verify_compression_suite(family, deadline=time.monotonic() - 1)
    assert verdicts(9, 3, 1) is None
    assert verify_compression_suite(family, deadline=time.monotonic() + 60).passed
    # kept verdicts are read under any deadline: the suite reads it only to build them
    assert verify_compression_suite(family, deadline=time.monotonic() - 1).passed


def test_the_verdicts_read_the_deadline_at_each_stage(monkeypatch):
    # with a clock that counts its reads, a deadline of t stops the build at read t,
    # in the table builds too: the universe's enumeration, once per first element, the
    # partition, once per member, the derivation (before it, its reductions, its
    # component check and its reduced image), the members' cells, each monotone
    # clause (collision-structure also before its buckets and its pairs), then each
    # table's rows (the members' and the reduced family's), before the incidence and
    # before each row.  A stopped build keeps no verdicts, and a later call builds them.
    n, r, k = 9, 3, 1
    family = star_family(n, r, k, 1)
    universe = enumerate_separated(n, r, k)
    members, reduced = len(universe), len(derive_families(universe).reduced)
    built = n + 1 + members  # the reads up to the last member placed
    derived = built + 5  # and up to the members' cells
    clauses = derived + 7  # and up to the last monotone clause
    stages = [
        *((f, f"the sets from element {f}") for f in range(1, n + 1)),
        (n + 1, "the compression verdicts"),
        *((n + 1 + i, f"placing member {i}") for i in range(1, members + 1)),
        (built + 1, "the compression derivation"),
        (built + 2, "the reduced components"),
        (built + 3, "the component check"),
        (built + 4, "the reduced image"),
        (built + 5, "the members' cells"),
        (derived + 1, "the collision-structure verdict"),
        (derived + 2, "the collision-structure buckets of fold 1"),
        (derived + 3, "the collision-structure pairs of fold 1"),
        *((derived + 4 + i, f"the {clause_id} verdict") for i, clause_id in enumerate(MONOTONE_IDS[1:])),
        (clauses + 1, "the rows"),
        (clauses + 1 + members, f"the row of vertex {members}"),
        (clauses + 2 + members, "the rows"),
        (clauses + 2 + members + reduced, f"the row of vertex {reduced}"),
    ]
    for reads, stage in stages:
        sepekr.core._universe.cache_clear()
        with monkeypatch.context() as clocked:
            clocked.setattr(sepekr.core, "time", CountingClock())
            with pytest.raises(ResourceLimitError, match=f"before {stage}$"):
                verify_compression_suite(family, deadline=reads)
        assert verdicts(n, r, k) is None, stage
    # the last read before the deadline builds them all
    with monkeypatch.context() as clocked:
        clocked.setattr(sepekr.core, "time", CountingClock())
        assert verify_compression_suite(family, deadline=reads + 1).passed
    assert verdicts(n, r, k) is not None


def test_the_verdicts_read_the_deadline_inside_the_derivation_and_each_fold(monkeypatch):
    # the stages a verdict build names, after the partition and before the tables: the
    # derivation's three reads, the cells, and two reads per fold j = 1..k of collision-structure
    stages = []
    real = compression.seconds_left

    def recorded(deadline, stage):
        if deadline is not None:  # the family's own derivation runs with none
            stages.append(stage)
        return real(deadline, stage)

    monkeypatch.setattr(compression, "seconds_left", recorded)
    n, r, k = 13, 3, 2
    sepekr.core._universe.cache_clear()
    assert verify_compression_suite(star_family(n, r, k, 1), deadline=time.monotonic() + 60).passed
    start = stages.index("the compression derivation")
    folds = [f"the collision-structure {step} of fold {j}" for j in range(1, k + 1) for step in ("buckets", "pairs")]
    assert stages[start : start + 6 + 2 * k] == [
        "the compression derivation",
        "the reduced components",
        "the component check",
        "the reduced image",
        "the members' cells",
        "the collision-structure verdict",
        *folds,
    ]
    assert stages[start + 6 + 2 * k :] == [f"the {clause_id} verdict" for clause_id in MONOTONE_IDS[1:]]


def test_the_partition_of_the_verdicts_reads_the_deadline_per_member(monkeypatch):
    # at 5 ms a member, a partition of the 660 members of (16, 4, 1) that read the
    # clock only before it starts would overshoot a 0.05 s limit by seconds
    family = star_family(16, 4, 1, 1)
    real = compression._compress_mask

    def slow(m):
        time.sleep(0.005)
        return real(m)

    monkeypatch.setattr(compression, "_compress_mask", slow)
    started = time.monotonic()
    with pytest.raises(ResourceLimitError, match="^time limit exceeded before placing member [0-9]+$"):
        verify_compression_suite(family, deadline=time.monotonic() + 0.05)
    assert time.monotonic() - started < 0.5
    assert verdicts(16, 4, 1) is None


def test_derive_agrees_with_the_independent_oracle():
    # every derived family's members, components in order, on the same families
    for n, r, k, members in oracle_cases():
        family = SetFamily(n, r, k, tuple(CircSet(n, m) for m in members))
        d = derive_families(family)
        got = [
            set(map(mask_elems, f))
            for f in (d.images, d.overlap, d.reduced, d.reduced_image, *d.components)
        ]
        images, overlap, reduced, reduced_image, components = derived_oracle(n, r, k, members)
        assert got == [images, overlap, reduced, reduced_image, *components], family.to_line()


def test_size_identity_components():
    # the identity splits the family between the surviving images and the reduced sets
    rng = random.Random(9)
    for _ in range(20):
        fam = random_maximal_intersecting(9, 3, 1, rng)
        free, anchored, _, _ = partition(fam)
        derived = derive_families(fam)
        images = {_compress_mask(m) for m in free + anchored}
        assert derived.images == images
        assert len(fam) == len(images) + len(derived.reduced)
