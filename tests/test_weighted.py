"""Gap-insertion weights, expansions, and the weighted intersecting-family bound."""

import math
import random
import time
from itertools import combinations

import pytest

from sepekr import (
    CircSet,
    ResourceLimitError,
    enumerate_separated,
    expand,
    family_weight,
    is_intersecting,
    random_maximal_intersecting,
    star_family,
    verify_weighted_ekr,
    weight,
)
import sepekr.weighted


# === weight ===


def test_weight_examples():
    assert weight(CircSet(10, (1, 4)), 1) == 12  # gaps (3,7): C(2,1)*C(6,1)
    assert weight(CircSet(5, (1, 3)), 1) == 2  # gaps (2,3): C(1,1)*C(2,1)
    assert weight(CircSet(6, (1, 4)), 1) == 4  # gaps (3,3): 2*2
    assert weight(CircSet(9, (1, 4, 7)), 2) == 1  # every gap is exactly k+1
    assert weight(CircSet(7, (2, 5)), 2) == 3  # gaps (3,4): C(2,2)*C(3,2)


def test_weight_k0_is_one():
    for s in enumerate_separated(7, 3, 0):
        assert weight(s, 0) == 1


def test_weight_rejects_bad_input():
    with pytest.raises(ValueError):
        weight(CircSet(6, (1, 2)), 1)
    with pytest.raises(ValueError):
        weight(CircSet(6, (1, 4)), -1)


def test_universe_weight_sum_identity():
    # each (k+1)r-set decomposes into k+1 phase selections, all separated
    for k in (1, 2):
        for r in (2, 3):
            for n in range((k + 1) * r, (k + 1) * r + 5):
                total = sum(weight(s, k) for s in enumerate_separated(n, r, k))
                assert total == (k + 1) * math.comb(n, (k + 1) * r), (n, r, k)


# === expansions ===


def test_expand_example():
    fam = expand(CircSet(5, (1, 3)), 1)
    assert fam.n == 5 and fam.r == 4 and fam.k == 0
    assert [s.elems for s in fam] == [(1, 2, 3, 4), (1, 2, 3, 5)]


def test_expand_members_contain_base_set():
    a = CircSet(9, (2, 5))
    for s in expand(a, 1):
        assert s.mask & a.mask == a.mask
        assert s.r == 4


def test_expand_size_equals_weight():
    for k in (0, 1, 2):
        for r in (1, 2, 3):
            for n in range((k + 1) * r, (k + 1) * r + 4):
                for s in enumerate_separated(n, r, k):
                    assert len(expand(s, k)) == weight(s, k), (s, k)


def test_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        expand(CircSet(6, (1, 2)), 1)
    with pytest.raises(ValueError):
        expand(CircSet(6, (1, 4)), -1)


def test_expansions_of_star_members_tile_the_point_stars():
    # expansions of the star through 1 hit every (k+1)r-set containing 1 exactly once
    for n, r, k in [(8, 2, 1), (10, 2, 1), (9, 2, 2), (12, 3, 1)]:
        star = star_family(n, r, k, 1)
        seen = []
        for a in star:
            seen.extend(s.elems for s in expand(a, k))
        assert len(seen) == len(set(seen))
        m = (k + 1) * r
        expected = {(1,) + rest for rest in combinations(range(2, n + 1), m - 1)}
        assert set(seen) == expected
        assert family_weight(star) == math.comb(n - 1, m - 1)


def test_star_weight_closed_form_below_regime_too():
    for k in (1, 2):
        for r in (2, 3):
            for n in range((k + 1) * r, 2 * (k + 1) * r + 2):
                star = star_family(n, r, k, 1)
                assert family_weight(star) == math.comb(n - 1, (k + 1) * r - 1), (n, r, k)


def test_expansions_disjoint_across_intersecting_family():
    rng = random.Random(17)
    for n, r, k in [(8, 2, 1), (9, 2, 1), (9, 2, 2), (10, 3, 1)]:
        for _ in range(6):
            fam = random_maximal_intersecting(n, r, k, rng)
            assert is_intersecting(fam)
            seen = []
            for a in fam:
                seen.extend(s.elems for s in expand(a, k))
            assert len(seen) == len(set(seen)), (n, r, k)
            assert len(seen) == family_weight(fam)
            # the union is itself an intersecting family of larger sets
            masks = [CircSet(n, e).mask for e in seen]
            for i in range(len(masks)):
                for j in range(i + 1, len(masks)):
                    assert masks[i] & masks[j]


def test_expansion_collision_for_disjoint_pair():
    # two disjoint sets can expand to a common superset, so intersecting matters
    a, b = CircSet(8, (1, 3)), CircSet(8, (2, 4))
    shared = {s.elems for s in expand(a, 1)} & {s.elems for s in expand(b, 1)}
    assert (1, 2, 3, 4) in shared


# === the weighted bound ===


def test_weighted_bound_frozen_12_2_2():
    report = verify_weighted_ekr(12, 2, 2)
    assert report.passed
    assert report.optimum == 462
    assert report.star_weight == 462
    assert report.binomial == math.comb(11, 5) == 462


def test_weighted_bound_passes_on_sample_points():
    for n, r, k in [(8, 2, 1), (9, 2, 1), (10, 2, 1), (13, 2, 2), (12, 3, 1)]:
        report = verify_weighted_ekr(n, r, k)
        assert report.passed, (n, r, k)
        assert report.nodes_explored > 0
        assert family_weight(report.witness) == report.optimum


def test_weighted_bound_rejects_out_of_regime():
    with pytest.raises(ValueError):
        verify_weighted_ekr(7, 2, 1)  # below 2(k+1)r
    with pytest.raises(ValueError):
        verify_weighted_ekr(11, 2, 2)
    with pytest.raises(ValueError):
        verify_weighted_ekr(10, 2, 0)


def test_weighted_report_json_shape():
    data = verify_weighted_ekr(8, 2, 1).to_json_dict()
    assert data == {
        "n": 8,
        "r": 2,
        "k": 1,
        "optimum": 35,
        "star_weight": 35,
        "binomial": 35,
        "pass": True,
    }


def test_weighted_enumerates_its_universe_once(enumerations):
    assert verify_weighted_ekr(15, 3, 1).passed
    assert enumerations == [(15, 3, 1)]


def test_weighted_time_limit_covers_the_star_weight(monkeypatch):
    real = sepekr.weighted.max_intersecting_weighted

    def slow(*args, **kwargs):
        result = real(*args, **kwargs)
        time.sleep(0.3)
        return result

    monkeypatch.setattr(sepekr.weighted, "max_intersecting_weighted", slow)
    with pytest.raises(ResourceLimitError, match="star"):
        verify_weighted_ekr(9, 2, 1, deadline=time.monotonic() + 0.2)
