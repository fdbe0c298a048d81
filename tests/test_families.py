"""Named families, dihedral isomorphism, and the pivot exchange map."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepekr import (
    CircSet,
    SetFamily,
    are_isomorphic,
    canonical_form,
    enumerate_separated,
    exceptional_family,
    exchange_map,
    is_intersecting,
    is_k_separated,
    random_maximal_intersecting,
    star_family,
    star_size_formula,
    transform_family,
)

from helpers import (
    brute_separated,
    dihedral_images,
    greedy_maximal_intersecting,
    intersecting,
    least_image,
)


# === stars ===


def test_star_examples():
    fam = star_family(7, 2, 1, 1)
    assert [s.elems for s in fam] == [(1, 3), (1, 4), (1, 5), (1, 6)]
    shifted = star_family(7, 2, 1, 3)
    assert all(3 in s for s in shifted)
    assert len(shifted) == len(fam)


def test_star_is_intersecting_and_has_formula_size():
    for k in (0, 1, 2):
        for r in (2, 3):
            for n in range((k + 1) * r, (k + 1) * r + 5):
                for i in (1, n):
                    fam = star_family(n, r, k, i)
                    assert is_intersecting(fam)
                    assert intersecting([s.elems for s in fam])
                    assert len(fam) == star_size_formula(n, r, k)


def test_star_rejects_bad_center():
    with pytest.raises(ValueError):
        star_family(7, 2, 1, 0)
    with pytest.raises(ValueError):
        star_family(7, 2, 1, 8)


def test_stars_through_different_points_are_isomorphic():
    a = star_family(9, 3, 1, 1)
    b = star_family(9, 3, 1, 5)
    assert are_isomorphic(a, b)
    assert canonical_form(a) == canonical_form(b)


# === exceptional families at n = 2r + 2, k = 1 ===


def test_exceptional_example_r2():
    fam = exceptional_family(2, 1)
    assert fam.n == 6 and fam.r == 2 and fam.k == 1
    assert [s.elems for s in fam] == [(1, 3), (1, 5), (3, 5)]


def test_exceptional_families_are_extremal_sized_and_intersecting():
    for r in (2, 3, 4, 5):
        n = 2 * r + 2
        for i in range(1, r // 2 + 1):
            fam = exceptional_family(r, i)
            assert fam.n == n and fam.r == r and fam.k == 1
            assert is_intersecting(fam)
            assert len(fam) == star_size_formula(n, r, 1)


def test_exceptional_families_are_not_stars():
    for r in (2, 3, 4, 5):
        for i in range(1, r // 2 + 1):
            fam = exceptional_family(r, i)
            star = star_family(2 * r + 2, r, 1, 1)
            assert not are_isomorphic(fam, star), (r, i)


def test_exceptional_rejects_bad_index():
    with pytest.raises(ValueError):
        exceptional_family(2, 0)
    with pytest.raises(ValueError):
        exceptional_family(2, 2)
    with pytest.raises(ValueError):
        exceptional_family(1, 1)


# === transforms and isomorphism ===


def test_transform_family_matches_elementwise_maps():
    fam = star_family(7, 2, 1, 1)
    shifted = transform_family(fam, shift=2)
    assert all(3 in s for s in shifted)
    reflected = transform_family(fam, reflected=True)
    assert all(1 in s for s in reflected)  # the reflection fixes 1
    assert transform_family(fam) == fam


def test_isomorphism_requires_matching_parameters():
    a = star_family(7, 2, 1, 1)
    b = star_family(8, 2, 1, 1)
    with pytest.raises(ValueError):
        are_isomorphic(a, b)
    c = enumerate_separated(7, 2, 0)
    with pytest.raises(ValueError):
        are_isomorphic(a, SetFamily(7, 2, 0, c.sets[:4]))


def test_rotations_only_flag():
    fam = SetFamily(7, 2, 1, (CircSet(7, (1, 3)), CircSet(7, (1, 4))))
    mirrored = transform_family(fam, reflected=True)
    assert are_isomorphic(fam, mirrored)
    assert not are_isomorphic(fam, mirrored, rotations_only=True)


def test_isomorphism_matches_orbit_oracle():
    universe = enumerate_separated(7, 2, 1).sets
    rng = random.Random(7)
    samples = []
    for _ in range(12):
        size = rng.randint(1, 4)
        samples.append(SetFamily(7, 2, 1, tuple(rng.sample(universe, size))))
    for a in samples:
        orbit = dihedral_images([s.elems for s in a], 7)
        for b in samples:
            expected = frozenset(s.elems for s in b) in orbit
            assert are_isomorphic(a, b) == expected, (a, b)


@st.composite
def small_families(draw):
    k = draw(st.integers(0, 2))
    r = draw(st.integers(2, 3))
    n = draw(st.integers((k + 1) * r + 1, (k + 1) * r + 5))
    universe = enumerate_separated(n, r, k).sets
    size = draw(st.integers(1, min(5, len(universe))))
    idx = draw(st.sets(st.integers(0, len(universe) - 1), min_size=size, max_size=size))
    return SetFamily(n, r, k, tuple(universe[i] for i in idx))


@settings(max_examples=100)
@given(small_families(), st.integers(-10, 10), st.booleans())
def test_canonical_form_is_orbit_invariant(fam, shift, reflected):
    moved = transform_family(fam, shift=shift, reflected=reflected)
    assert canonical_form(moved) == canonical_form(fam)
    assert are_isomorphic(fam, moved)


@settings(max_examples=60)
@given(small_families())
def test_canonical_form_is_idempotent_and_in_orbit(fam):
    canon = canonical_form(fam)
    assert canonical_form(canon) == canon
    assert frozenset(s.elems for s in canon) in dihedral_images(
        [s.elems for s in fam], fam.n
    )


@st.composite
def families_up_to_20_points(draw):
    """Families of k-separated r-sets, r = 1..4 and k = 0..2 on up to 20 points, empty ones included."""
    k = draw(st.integers(0, 2))
    r = draw(st.integers(1, 4))
    n = draw(st.integers((k + 1) * r, 20))
    universe = brute_separated(n, r, k)
    idx = draw(st.sets(st.integers(0, len(universe) - 1), max_size=min(8, len(universe))))
    return n, r, k, [universe[i] for i in sorted(idx)]


@settings(max_examples=150, deadline=None)
@given(families_up_to_20_points(), st.booleans())
@example((9, 3, 1, []), False)
@example((9, 3, 1, []), True)
def test_canonical_form_is_the_least_image(drawn, rotations_only):
    n, r, k, members = drawn
    fam = SetFamily(n, r, k, tuple(CircSet(n, m) for m in members))
    canon = canonical_form(fam, rotations_only)
    assert tuple(s.elems for s in canon) == least_image(members, n, rotations_only)
    assert (canon.n, canon.r, canon.k) == (n, r, k)


# === exchange map ===


def test_exchange_examples():
    assert exchange_map(CircSet(7, (1, 4)), 1) == CircSet(7, (3, 5))
    assert exchange_map(CircSet(12, (1, 5, 9)), 2) == CircSet(12, (4, 7, 11))


def test_exchange_requires_anchor_without_pivot():
    with pytest.raises(ValueError):
        exchange_map(CircSet(7, (2, 4)), 1)  # 1 not a member
    with pytest.raises(ValueError):
        exchange_map(CircSet(7, (1, 3)), 1)  # k+2 already a member
    with pytest.raises(ValueError):
        exchange_map(CircSet(7, (1, 4)), 0)


def test_exchange_bijection_on_8_2_1():
    domain = [
        s for s in enumerate_separated(8, 2, 1) if 1 in s and 3 not in s
    ]
    assert len(domain) == 4  # C(n - kr - 2, r - 1) with n=8, r=2, k=1
    images = [exchange_map(s, 1) for s in domain]
    assert len(set(images)) == len(images)
    for src, dst in zip(domain, images):
        assert not src.intersects(dst)
        assert 3 in dst and 1 not in dst


def test_exchange_properties_on_grid():
    for k in (1, 2):
        for r in (2, 3):
            for n in range((k + 1) * r + 2, (k + 1) * r + 7):
                domain = [
                    s
                    for s in enumerate_separated(n, r, k)
                    if 1 in s and (k + 2) not in s
                ]
                assert len(domain) == math.comb(n - k * r - 2, r - 1), (n, r, k)
                images = set()
                for s in domain:
                    img = exchange_map(s, k)
                    assert img.n == n and img.r == r
                    assert is_k_separated(img, k)
                    assert not s.intersects(img)
                    assert (k + 2) in img and 1 not in img
                    images.add(img)
                assert len(images) == len(domain)


# === random maximal families ===


def test_random_maximal_is_reproducible_and_maximal():
    fam = random_maximal_intersecting(9, 3, 1, random.Random(42))
    again = random_maximal_intersecting(9, 3, 1, random.Random(42))
    assert fam == again
    assert is_intersecting(fam)
    members = fam.member_keys
    for s in enumerate_separated(9, 3, 1):
        if s.elems in members:
            continue
        assert not all(s.intersects(t) for t in fam)  # nothing more fits


def test_random_maximal_varies_with_seed():
    fams = {
        random_maximal_intersecting(10, 2, 1, random.Random(seed)).member_keys
        for seed in range(8)
    }
    assert len(fams) > 1


def test_random_maximal_matches_the_greedy_reference_on_interleaved_instances():
    # One n with r or k differing, sampled in turn, so a cache keyed on less
    # than (n, r, k) hands one instance another's universe.
    instances = [(12, 3, 1), (12, 2, 2), (12, 3, 2)]
    for seed in range(5):
        rngs = [random.Random(seed) for _ in instances]
        refs = [random.Random(seed) for _ in instances]
        for _ in range(3):
            for inst, rng, ref in zip(instances, rngs, refs):
                got = random_maximal_intersecting(*inst, rng)
                assert [s.elems for s in got] == greedy_maximal_intersecting(*inst, ref)


def test_the_seeded_sample_stream_is_pinned():
    # 200 draws at seed 0 on (20,4,2): the lemmas benchmark's members_total
    rng = random.Random(0)
    assert sum(len(random_maximal_intersecting(20, 4, 2, rng)) for _ in range(200)) == 21274


@settings(max_examples=150)
@given(st.data())
def test_is_intersecting_matches_the_pairwise_oracle(data):
    n = data.draw(st.integers(2, 12))
    r = data.draw(st.integers(1, n))
    elems = st.sets(st.integers(1, n), min_size=r, max_size=r)
    members = data.draw(st.lists(elems, max_size=12))
    fam = SetFamily(n, r, 0, tuple(CircSet(n, tuple(e)) for e in members))
    assert is_intersecting(fam) == intersecting([s.elems for s in fam])


def test_star_and_samples_enumerate_the_universe_once(enumerations):
    rng = random.Random(0)
    star_family(20, 4, 2, 1)
    for _ in range(200):
        random_maximal_intersecting(20, 4, 2, rng)
    assert enumerations == [(20, 4, 2)]
