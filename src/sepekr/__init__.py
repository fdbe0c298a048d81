"""Exact toolkit for intersecting families of k-separated sets on a circle.

Enumeration of separated sets, a per-instance verification suite for the
compression argument, exact maximum and weighted-maximum intersecting
families, extremal classification up to circle symmetry, and
Kneser/Schrijver graph invariants.
"""

from .core import (
    CircSet,
    ResourceLimitError,
    SetFamily,
    disjointness_rows,
    enumerate_separated,
    gap_vector,
    is_k_separated,
    separated_masks,
    star_size_formula,
)
from .families import (
    is_intersecting,
    random_maximal_intersecting,
    star_family,
)
from .compression import (
    ClauseResult,
    CompressionReport,
    verify_compression_suite,
)
from .search import (
    SearchResult,
    enumerate_max_independent,
    extremal_classes,
    max_intersecting,
    max_intersecting_weighted,
    solve_max_independent,
)
from .weighted import (
    WeightedBoundReport,
    expand,
    family_weight,
    verify_weighted_ekr,
    weight,
)
from .graph import (
    DisjointnessGraph,
    build_kneser,
    build_schrijver,
    chromatic_number,
    export_dimacs,
    independence_number,
)

__version__ = "0.1.0"

__all__ = [
    "CircSet",
    "SetFamily",
    "enumerate_separated",
    "separated_masks",
    "disjointness_rows",
    "gap_vector",
    "is_k_separated",
    "star_size_formula",
    "is_intersecting",
    "random_maximal_intersecting",
    "star_family",
    "ClauseResult",
    "CompressionReport",
    "verify_compression_suite",
    "ResourceLimitError",
    "SearchResult",
    "enumerate_max_independent",
    "extremal_classes",
    "max_intersecting",
    "max_intersecting_weighted",
    "solve_max_independent",
    "WeightedBoundReport",
    "expand",
    "family_weight",
    "verify_weighted_ekr",
    "weight",
    "DisjointnessGraph",
    "build_kneser",
    "build_schrijver",
    "chromatic_number",
    "export_dimacs",
    "independence_number",
]
