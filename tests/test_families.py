"""Named families, intersection checks, random maximal families, and the search's canonical forms."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepekr import (
    CircSet,
    DisjointnessGraph,
    ResourceLimitError,
    SetFamily,
    enumerate_separated,
    extremal_classes,
    is_intersecting,
    random_maximal_intersecting,
    star_family,
    star_size_formula,
)
import sepekr.core
from sepekr.core import mask_elems, separated_masks
from sepekr.search import _orbit, _vertex_permutations

from helpers import (
    CountingClock,
    brute_separated,
    dihedral_images,
    exceptional_members,
    greedy_maximal_intersecting,
    intersecting,
    least_image,
)


def canonical(n, r, k, members, rotations_only=False):
    """The search's canonical form of a family: the least image of its vertex mask on
    the universe graph under the group of the search (the rotations, its first n,
    with rotations_only), as a sorted list of element tuples."""
    graph = DisjointnessGraph(n, r, k, tuple(separated_masks(n, r, k)))
    index = {mask_elems(m): v for v, m in enumerate(graph.masks)}
    perms = _vertex_permutations(graph)[: n if rotations_only else None]
    mask = sum(1 << index[tuple(sorted(m))] for m in members)
    least = min(_orbit(mask, perms), key=mask_elems)
    return [mask_elems(graph.masks[e - 1]) for e in mask_elems(least)]


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


def test_the_star_reads_the_deadline_at_each_stage_of_its_build(monkeypatch):
    # with a clock that counts its reads, a deadline of t stops the build at read t: the
    # universe's enumeration, once per first element, its member check and the star's
    # members; a stopped universe build keeps nothing, and the next read is past the build
    n, r, k = 9, 3, 1
    stages = [
        *((f, f"the sets from element {f}") for f in range(1, n + 1)),
        (n + 1, "the member check"),
        (n + 2, "the star's members"),
    ]
    for reads, stage in stages:
        sepekr.core._universe.cache_clear()
        with monkeypatch.context() as clocked:
            clocked.setattr(sepekr.core, "time", CountingClock())
            with pytest.raises(ResourceLimitError, match=f"^time limit exceeded before {stage}$"):
                star_family(n, r, k, 1, deadline=reads)
        assert (sepekr.core._universe.graph is None) == (reads <= n + 1), stage
    sepekr.core._universe.cache_clear()
    with monkeypatch.context() as clocked:
        clocked.setattr(sepekr.core, "time", CountingClock())
        assert star_family(n, r, k, 1, deadline=n + 3) == star_family(n, r, k, 1)


def test_star_rejects_bad_center():
    with pytest.raises(ValueError):
        star_family(7, 2, 1, 0)
    with pytest.raises(ValueError):
        star_family(7, 2, 1, 8)


def test_stars_through_different_points_are_isomorphic():
    a = [s.elems for s in star_family(9, 3, 1, 1)]
    b = [s.elems for s in star_family(9, 3, 1, 5)]
    assert canonical(9, 3, 1, a) == canonical(9, 3, 1, b) == list(least_image(a, 9))
    assert least_image(b, 9) == least_image(a, 9)


# === exceptional families at n = 2r + 2, k = 1 ===


def test_exceptional_example_r2():
    # the oracle's family, and the non-star class of the (6,2,1) census
    assert exceptional_members(2, 1) == [(1, 3), (1, 5), (3, 5)]
    assert extremal_classes(6, 2, 1).classes[1].to_line() == "6 2 1 : {1,3} {1,5} {3,5}"


def test_exceptional_families_are_extremal_sized_and_intersecting():
    for r in (2, 3, 4, 5):
        n = 2 * r + 2
        for i in range(1, r // 2 + 1):
            members = exceptional_members(r, i)
            fam = SetFamily(n, r, 1, tuple(CircSet(n, m) for m in members))
            assert is_intersecting(fam) and intersecting(members)
            assert len(fam) == star_size_formula(n, r, 1)


def test_exceptional_families_are_not_stars():
    for r in (2, 3, 4, 5):
        n = 2 * r + 2
        star = [s.elems for s in star_family(n, r, 1, 1)]
        for i in range(1, r // 2 + 1):
            members = exceptional_members(r, i)
            assert canonical(n, r, 1, members) != canonical(n, r, 1, star), (r, i)
            assert least_image(members, n) != least_image(star, n), (r, i)


# === canonical forms: the least image under the search's group ===


def test_rotations_only_flag():
    members = [(1, 3), (1, 4)]
    mirrored = [(4, 7), (5, 7)]  # x -> 8 - x
    assert canonical(7, 2, 1, members) == canonical(7, 2, 1, mirrored)
    assert canonical(7, 2, 1, members, True) != canonical(7, 2, 1, mirrored, True)


def test_isomorphism_matches_orbit_oracle():
    universe = brute_separated(7, 2, 1)
    rng = random.Random(7)
    samples = [rng.sample(universe, rng.randint(1, 4)) for _ in range(12)]
    for a in samples:
        orbit = dihedral_images(a, 7)
        for b in samples:
            expected = frozenset(b) in orbit
            assert (canonical(7, 2, 1, a) == canonical(7, 2, 1, b)) == expected, (a, b)


@st.composite
def small_families(draw):
    k = draw(st.integers(0, 2))
    r = draw(st.integers(2, 3))
    n = draw(st.integers((k + 1) * r + 1, (k + 1) * r + 5))
    universe = brute_separated(n, r, k)
    size = draw(st.integers(1, min(5, len(universe))))
    idx = draw(st.sets(st.integers(0, len(universe) - 1), min_size=size, max_size=size))
    return n, r, k, [universe[i] for i in sorted(idx)]


@settings(max_examples=100, deadline=None)
@given(small_families(), st.integers(0, 40), st.booleans())
def test_canonical_form_is_orbit_invariant(drawn, g, rotations_only):
    # image g of the family, by the oracle, has the family's canonical form
    n, r, k, members = drawn
    images = dihedral_images(members, n, rotations_only)
    moved = images[g % len(images)]
    assert canonical(n, r, k, moved, rotations_only) == canonical(n, r, k, members, rotations_only)


@settings(max_examples=60, deadline=None)
@given(small_families())
def test_canonical_form_is_idempotent_and_in_orbit(drawn):
    n, r, k, members = drawn
    canon = canonical(n, r, k, members)
    assert canonical(n, r, k, canon) == canon
    assert frozenset(canon) in dihedral_images(members, n)


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
    # the least vertex mask is the least family, because vertices are in lexicographic order
    n, r, k, members = drawn
    assert tuple(canonical(n, r, k, members, rotations_only)) == least_image(members, n, rotations_only)


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
        assert not all(s.mask & t.mask for t in fam)  # nothing more fits


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
    assert sum(len(random_maximal_intersecting(20, 4, 2, rng)) for _ in range(200)) == 21058


class OnlyRandom:
    """An RNG with a random() method and nothing else, so any other kind of draw raises."""

    def __init__(self, random_):
        self.random = random_


def test_the_sampler_draws_only_random_once_per_vertex():
    seed_draws = random.Random(5).random
    draws = []

    def counted():
        draws.append(seed_draws())
        return draws[-1]

    got = random_maximal_intersecting(12, 3, 1, OnlyRandom(counted))
    assert len(draws) == len(brute_separated(12, 3, 1))
    assert [s.elems for s in got] == greedy_maximal_intersecting(12, 3, 1, random.Random(5))


def test_equal_keys_visit_the_universe_in_lexicographic_order():
    # every key ties, so the lower vertex, the lexicographically smaller set, goes first
    for inst in [(9, 3, 1), (12, 2, 2), (10, 2, 0)]:
        kept: list[tuple[int, ...]] = []
        for s in brute_separated(*inst):
            if all(set(s) & set(t) for t in kept):
                kept.append(s)
        got = random_maximal_intersecting(*inst, OnlyRandom(lambda: 0.5))
        assert [s.elems for s in got] == kept, inst


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
