"""Exact toolkit for intersecting families of k-separated sets on a circle.

Enumeration and symmetry of separated sets, compression machinery with a
per-instance verification suite, exact maximum and weighted-maximum
intersecting families, extremal classification up to circle symmetry, and
Kneser/Schrijver graph invariants.
"""

from .core import (
    CircSet,
    ResourceLimitError,
    SetFamily,
    disjointness_adjacency,
    enumerate_separated,
    from_gaps,
    gap_vector,
    is_k_separated,
    reflect,
    rotate,
    separated_masks,
    star_size_formula,
)
from .families import (
    are_isomorphic,
    canonical_form,
    exceptional_family,
    exchange_map,
    is_intersecting,
    random_maximal_intersecting,
    star_family,
    transform_family,
)
from .compression import (
    ClauseResult,
    CompressionReport,
    DerivedFamilies,
    PartitionResult,
    compress,
    compress_iter,
    derive_families,
    partition_family,
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
    "from_gaps",
    "gap_vector",
    "is_k_separated",
    "reflect",
    "rotate",
    "star_size_formula",
    "are_isomorphic",
    "canonical_form",
    "exceptional_family",
    "exchange_map",
    "is_intersecting",
    "random_maximal_intersecting",
    "star_family",
    "transform_family",
    "ClauseResult",
    "CompressionReport",
    "DerivedFamilies",
    "PartitionResult",
    "compress",
    "compress_iter",
    "derive_families",
    "partition_family",
    "verify_compression_suite",
    "ResourceLimitError",
    "SearchResult",
    "disjointness_adjacency",
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
