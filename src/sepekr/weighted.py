"""Gap-insertion weights on separated sets and the weighted intersecting-family bound.

The weight of a k-separated set counts the ways to insert k extra elements
strictly inside each of its circular gaps.  Summed over an intersecting family
the expansions stay pairwise distinct, which is what the weighted bound
exploits; everything here is exact integer arithmetic.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import NamedTuple

from .core import (
    DEFAULT_MAX_VERTICES,
    CircSet,
    SetFamily,
    gap_vector,
    is_k_separated,
    seconds_left,
)
from .families import star_family
from .search import SearchResult, max_intersecting_weighted


def weight(a: CircSet, k: int) -> int:
    """Product over the circular gaps g of C(g-1, k)."""
    if not is_k_separated(a, k):
        raise ValueError(f"{a} is not {k}-separated in [{a.n}]")
    w = 1
    for g in gap_vector(a):
        w *= math.comb(g - 1, k)
    return w


def expand(a: CircSet, k: int) -> SetFamily:
    """All supersets of a obtained by inserting exactly k elements inside each circular gap.

    Members have (k+1)r elements; their count equals weight(a, k).
    """
    if not is_k_separated(a, k):
        raise ValueError(f"{a} is not {k}-separated in [{a.n}]")
    n = a.n
    e = a.elems
    interiors = []
    for i, g in enumerate(gap_vector(a)):
        lo = e[i]
        interiors.append(tuple((lo + d - 1) % n + 1 for d in range(1, g)))
    members = []
    for picks in product(*(combinations(inner, k) for inner in interiors)):
        extra = [x for pick in picks for x in pick]
        members.append(CircSet(n, e + tuple(extra)))
    return SetFamily(n, (k + 1) * a.r, 0, tuple(members))


def family_weight(family: SetFamily) -> int:
    """Total weight of a family under its own separation parameter."""
    return sum(weight(s, family.k) for s in family)


class WeightedBoundReport(NamedTuple):
    """Exact weighted optimum against the star family and its closed form."""

    n: int
    r: int
    k: int
    optimum: int
    star_weight: int
    binomial: int
    witness: SetFamily
    nodes_explored: int

    @property
    def passed(self) -> bool:
        return self.optimum == self.star_weight == self.binomial

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "optimum": self.optimum,
            "star_weight": self.star_weight,
            "binomial": self.binomial,
            "pass": self.passed,
        }


def verify_weighted_ekr(
    n: int,
    r: int,
    k: int,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    deadline: float | None = None,
) -> WeightedBoundReport:
    """Solve the weighted problem exactly and compare with the star family.

    Defined on the regime n >= 2(k+1)r where the star is heaviest; its weight
    has the closed form C(n-1, (k+1)r - 1).  One time.monotonic() deadline
    covers the whole call: the solve and the star's weight.
    """
    if k < 1:
        raise ValueError(f"weighted bound needs k >= 1, got k={k}")
    if n < 2 * (k + 1) * r:
        raise ValueError(f"need n >= 2(k+1)r = {2 * (k + 1) * r}, got n={n}")
    seconds_left(deadline, "the solve")
    result: SearchResult = max_intersecting_weighted(
        n, r, k, lambda s: weight(s, k), max_vertices=max_vertices, deadline=deadline
    )
    seconds_left(deadline, "the star's weight")
    return WeightedBoundReport(
        n=n,
        r=r,
        k=k,
        optimum=result.optimum,
        star_weight=family_weight(star_family(n, r, k, 1, max_vertices=max_vertices)),
        binomial=math.comb(n - 1, (k + 1) * r - 1),
        witness=result.witness,
        nodes_explored=result.nodes_explored,
    )
