"""In-memory span tracing around sepekr's public functions, from outside the package.

Each wrapper replaces a function at the module attribute its callers look it
up through (``sepekr.search.canonical_form`` is the name ``extremal_classes``
calls), so no file of the package changes.  A span is
``[name, start, end, parent index, item id, counters]``; counters are
deterministic counts read off the wrapped function's return value.  The
patches live only as long as the process, which runs one repeat.
"""

from __future__ import annotations

import time
from collections import defaultdict

import sepekr.cli
import sepekr.compression
import sepekr.families
import sepekr.graph
import sepekr.search
import sepekr.weighted


def _rnk(args) -> str:
    return ",".join(str(a) for a in args[:3])


# (module, attribute, span name, item id from the arguments, counters from the result)
TARGETS = [
    (sepekr.cli, "run", "cli.run", None, None),
    (sepekr.cli, "max_intersecting", "search.max_intersecting", _rnk, None),
    (sepekr.cli, "extremal_classes", "search.extremal_classes", _rnk,
     lambda res: {"classes": len(res.classes)}),
    (sepekr.search, "extremal_classes", "search.extremal_classes", _rnk,
     lambda res: {"classes": len(res.classes)}),
    (sepekr.search, "solve_max_independent", "search.solve", None,
     lambda res: {"nodes": res[2]}),
    (sepekr.search, "enumerate_max_independent", "search.enumerate_all", None,
     lambda res: {"nodes": res[1], "optima": len(res[0])}),
    (sepekr.search, "disjointness_adjacency", "search.adjacency", None, None),
    (sepekr.graph, "disjointness_adjacency", "search.adjacency", None, None),
    (sepekr.search, "canonical_form", "families.canonical", None, None),
    (sepekr.search, "enumerate_separated", "core.enumerate", None, None),
    (sepekr.families, "enumerate_separated", "core.enumerate", None, None),
    (sepekr.graph, "enumerate_separated", "core.enumerate", None, None),
    (sepekr.families, "random_maximal_intersecting", "families.sample", None, None),
    (sepekr.compression, "verify_compression_suite", "compression.suite", None,
     lambda res: {"clauses": len(res.clauses)}),
    (sepekr.weighted, "verify_weighted_ekr", "weighted.verify", _rnk,
     lambda res: {"nodes": res.nodes_explored}),
    (sepekr.graph, "build_schrijver", "graph.build", _rnk, None),
    (sepekr.graph, "chromatic_number", "graph.chi", None, None),
]


class Tracer:
    """Collects spans from the wrapped functions of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item: str | None = None

    def set_item(self, item: str) -> None:
        self.item = item

    def install(self) -> list[str]:
        """Wrap every target; returns the targets the package no longer has."""
        missing = []
        for module, attr, name, item_of, counters_of in TARGETS:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, item_of, counters_of))
        return missing

    def _wrap(self, fn, name, item_of, counters_of):
        def wrapper(*args, **kwargs):
            outer_item = self.item
            if item_of is not None:
                self.item = f"{name}({item_of(args)})"
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self.item = outer_item
            if counters_of is not None:
                span[5] = counters_of(result)
            return result

        return wrapper

    def layer_metrics(self, scale: float) -> dict[str, float]:
        """Per-layer totals of this process's spans (all but the trace.* metrics).

        Times are inclusive span durations summed per name, multiplied by
        ``scale``; no span name nests inside itself, so nothing is counted
        twice.  cli.self_s is the time of cli.run not covered by its child
        spans.
        """
        secs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[tuple[str, str], int] = defaultdict(int)
        child_secs: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _item, counters in self.spans:
            secs[name] += (end - start) * scale
            calls[name] += 1
            if parent >= 0:
                child_secs[parent] += (end - start) * scale
            for key, value in (counters or {}).items():
                counts[name, key] += value
        cli_self = 0.0
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            if name == "cli.run":
                cli_self += (end - start) * scale - child_secs[i]
        solve_nodes = counts["search.solve", "nodes"]
        canonical_calls = calls["families.canonical"]
        return {
            "search.solve_s": secs["search.solve"],
            "search.solve_nodes": solve_nodes,
            "search.us_per_node": 1e6 * secs["search.solve"] / solve_nodes if solve_nodes else 0.0,
            "search.enumerate_all_s": secs["search.enumerate_all"],
            "search.enumerate_all_nodes": counts["search.enumerate_all", "nodes"],
            "search.optima_found": counts["search.enumerate_all", "optima"],
            "families.canonical_s": secs["families.canonical"],
            "families.canonical_calls": canonical_calls,
            "families.census_yield": counts["search.extremal_classes", "classes"] / canonical_calls
            if canonical_calls
            else 0.0,
            "families.sample_s": secs["families.sample"],
            "core.enumerate_calls": calls["core.enumerate"],
            "core.enumerate_s": secs["core.enumerate"],
            "compression.suite_s": secs["compression.suite"],
            "compression.clauses_checked": counts["compression.suite", "clauses"],
            "weighted.verify_s": secs["weighted.verify"],
            "weighted.nodes": counts["weighted.verify", "nodes"],
            "graph.build_s": secs["graph.build"],
            "graph.chi_s": secs["graph.chi"],
            "search.adjacency_s": secs["search.adjacency"],
            "cli.self_s": cli_self,
        }

