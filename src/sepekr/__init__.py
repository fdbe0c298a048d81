"""Exact toolkit for intersecting families of k-separated sets on a circle.

Enumeration of separated sets, a per-instance verification suite for the
compression argument, exact maximum and weighted-maximum intersecting
families, extremal classification up to circle symmetry, and
Kneser/Schrijver graph invariants.

The namespace is lazy (PEP 562): ``import sepekr`` loads no submodule, and
the first read of a public name imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it, in the order of __all__
_HOME = {
    "CircSet": "core",
    "SetFamily": "core",
    "enumerate_separated": "core",
    "separated_masks": "core",
    "disjointness_rows": "core",
    "gap_vector": "core",
    "is_k_separated": "core",
    "star_size_formula": "core",
    "is_intersecting": "families",
    "random_maximal_intersecting": "families",
    "star_family": "families",
    "ClauseResult": "compression",
    "CompressionReport": "compression",
    "verify_compression_suite": "compression",
    "ResourceLimitError": "core",
    "SearchResult": "search",
    "enumerate_max_independent": "search",
    "extremal_classes": "search",
    "max_intersecting": "search",
    "max_intersecting_weighted": "search",
    "solve_max_independent": "search",
    "WeightedBoundReport": "weighted",
    "expand": "weighted",
    "family_weight": "weighted",
    "verify_weighted_ekr": "weighted",
    "weight": "weighted",
    "DisjointnessGraph": "core",
    "build_kneser": "graph",
    "build_schrijver": "graph",
    "chromatic_number": "graph",
    "export_dimacs": "graph",
    "independence_number": "graph",
}

__all__ = list(_HOME)


def __getattr__(name):
    """A public name, or one of the six modules, imported on its first read and kept here."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _HOME.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
