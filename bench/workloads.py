"""One repeat of one benchmark workload, with oracles that do not trust sepekr.

Run by ``run.py`` in a fresh interpreter per repeat:

    python3 bench/workloads.py --workload grid --seed 0 --trace 0

It prints one JSON line: the time of the workload with its checks in
reference seconds (``calibrate.py``) and in raw seconds, the items attempted
and failed, deterministic counts, peak memory and, with
``--trace 1``, the per-layer totals and spans from ``spans.py``.

The oracles are written from the definitions (closed forms, brute-force
enumeration, a dihedral canonical form of their own); they never call back
into sepekr, so a traced run records only the workload's own calls.
Workloads call the package through module attributes at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import random
import resource
import sys
import time

import sepekr.cli
import sepekr.compression
import sepekr.families
import sepekr.graph
import sepekr.search
import sepekr.weighted

import calibrate
import spans

# Gated counts: a different value is a failed item, not a recorded change.
CENSUS = [((16, 7, 1), False, 12), ((18, 8, 1), False, 23), ((18, 8, 1), True, 30)]
WEIGHTED_INSTANCE, WEIGHTED_NODES = (15, 3, 1), 6913
SCHRIJVER_INSTANCE = (11, 2, 1)
LEMMAS_INSTANCE, LEMMAS_SAMPLES = (20, 4, 2), 200
NOMINAL_ITEMS = {"grid": 53, "census": len(CENSUS), "lemmas": LEMMAS_SAMPLES, "invariants": 2}


def star_size(n: int, r: int, k: int) -> int:
    return math.comb(n - k * r - 1, r - 1)


def gaps(elems: tuple[int, ...], n: int) -> list[int]:
    return [b - a for a, b in zip(elems, elems[1:])] + [elems[0] + n - elems[-1]]


def separated_sets(n: int, r: int, k: int) -> list[tuple[int, ...]]:
    """All k-separated r-subsets of the n-circle, filtered from all r-subsets."""
    return [c for c in itertools.combinations(range(1, n + 1), r) if min(gaps(c, n)) > k]


def mask(elems) -> int:
    return sum(1 << (a - 1) for a in elems)


def pairwise_intersecting(members) -> bool:
    masks = [mask(m) for m in members]
    return all(a & b for a, b in itertools.combinations(masks, 2))


def canonical_key(members, n: int, rotations_only: bool) -> tuple:
    """Least image of a family under rotations (and reflections x -> n+1-x)."""
    images = []
    for flip in (False,) if rotations_only else (False, True):
        for shift in range(n):
            images.append(
                tuple(
                    sorted(
                        tuple(sorted(((n + 1 - x if flip else x) + shift - 1) % n + 1 for x in m))
                        for m in members
                    )
                )
            )
    return min(images)


def default_grid_rows() -> list[tuple[int, int, int]]:
    """The 53 rows (n, r, k) of ``report --grid default``."""
    rows = [(n, r, 1) for r in (2, 3, 4) for n in range(2 * r, 15)]
    rows += [(n, r, 2) for r in (2, 3) for n in range(3 * r, 16)]
    rows += [(n, 2, 3) for n in range(8, 17)]
    return rows


def grid(seed: int, note_item) -> tuple[int, list[str], dict]:
    """The headline command, ``report --grid default``, through ``sepekr.cli.run``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = sepekr.cli.run(["report", "--grid", "default"])
    lines = out.getvalue().splitlines()
    problems = []
    if code != 0 or lines[-1:] != ["verified true"]:
        problems.append(f"report exited {code} with last line {lines[-1:]}")
    seen = {}
    for line in lines[1:-1]:
        n, r, k, optimum, formula, match, classes, nodes = line.split()
        seen[int(n), int(r), int(k)] = (int(optimum), int(formula), match, classes, int(nodes))
    nodes_total = classes_total = 0
    for (n, r, k), (optimum, formula, match, classes, nodes) in seen.items():
        nodes_total += nodes
        expected = star_size(n, r, k)
        if not optimum == formula == expected or match != "ok":
            problems.append(f"row {n},{r},{k}: optimum {optimum}, formula {formula}, star {expected}")
        if classes != "-":
            classes_total += int(classes)
            exceptional = k == 1 and n == 2 * r + 2
            if (int(classes) > 1) != exceptional:
                problems.append(f"row {n},{r},{k}: {classes} classes, exceptional={exceptional}")
    missing = set(default_grid_rows()) - set(seen)
    problems += [f"row {row} missing" for row in sorted(missing)]
    counts = {"rows": len(seen), "nodes_total": nodes_total, "classes_total": classes_total}
    return len(seen) + len(missing), problems, counts


def census_problems(result, n: int, r: int, k: int, rotations_only: bool, expected: int) -> list[str]:
    size = star_size(n, r, k)
    universe = set(separated_sets(n, r, k))
    reps = [[s.elems for s in family.sets] for family in result.classes]
    problems = []
    if result.optimum != size:
        problems.append(f"optimum {result.optimum} != star {size}")
    if len(reps) != expected:
        problems.append(f"{len(reps)} classes, expected {expected}")
    for rep in reps:
        if len(rep) != size or not set(rep) <= universe or not pairwise_intersecting(rep):
            problems.append(f"representative of size {len(rep)} is not an intersecting family")
    keys = {canonical_key(rep, n, rotations_only) for rep in reps}
    if len(keys) != len(reps):
        problems.append("two representatives are isomorphic")
    known = {"star": [u for u in universe if 1 in u]}
    if k == 1 and n == 2 * r + 2:
        for i in range(1, r // 2 + 1):
            window = set(range(1, 4 * i + 2, 2))
            known[f"exceptional {i}"] = [u for u in universe if len(window.intersection(u)) > i]
    for name, family in known.items():
        if len(family) != size or canonical_key(family, n, rotations_only) not in keys:
            problems.append(f"{name} family is not among the representatives")
    return problems


def census(seed: int, note_item) -> tuple[int, list[str], dict]:
    """``extremal_classes`` on the exceptional circles, where enumeration and canonicalisation dominate."""
    problems, counts = [], {}
    for (n, r, k), rotations_only, expected in CENSUS:
        label = f"{n}-{r}-{k}" + ("-rotations" if rotations_only else "")
        note_item(label)
        result = sepekr.search.extremal_classes(n, r, k, rotations_only=rotations_only)
        found = census_problems(result, n, r, k, rotations_only, expected)
        if found:
            problems.append(f"{label}: {'; '.join(found)}")
        counts[f"classes.{label}"] = len(result.classes)
        counts[f"nodes.{label}"] = result.nodes_explored
    return len(CENSUS), problems, counts


def lemmas(seed: int, note_item) -> tuple[int, list[str], dict]:
    """Seeded random maximal families, each through the compression suite."""
    n, r, k = LEMMAS_INSTANCE
    universe = separated_sets(n, r, k)
    index = {u: i for i, u in enumerate(universe)}
    masks = [mask(u) for u in universe]
    clash = [sum(1 << j for j, b in enumerate(masks) if not a & b) for a in masks]
    rng = random.Random(seed)
    problems = []
    clauses = members = 0
    for sample in range(LEMMAS_SAMPLES):
        note_item(f"sample {sample}")
        family = sepekr.families.random_maximal_intersecting(n, r, k, rng)
        report = sepekr.compression.verify_compression_suite(family)
        clauses += len(report.clauses)
        members += len(family)
        found = []
        picked = [index.get(s.elems) for s in family.sets]
        if None in picked:
            found.append("member outside the universe")
        else:
            bits = sum(1 << i for i in picked)
            if any(clash[i] & bits for i in picked):
                found.append("not intersecting")
            if any(not clash[j] & bits for j in range(len(universe)) if not bits >> j & 1):
                found.append("not maximal")
        failed = [c.clause_id for c in report.clauses if not c.passed]
        if failed or not report.passed:
            found.append(f"clauses failed: {failed}")
        if found:
            problems.append(f"sample {sample}: {', '.join(found)}")
    counts = {"families": LEMMAS_SAMPLES, "clauses_checked": clauses, "members_total": members}
    return LEMMAS_SAMPLES, problems, counts


def invariants(seed: int, note_item) -> tuple[int, list[str], dict]:
    """The weighted bound and Schrijver's chromatic number, the layers the other workloads miss."""
    problems = []
    n, r, k = WEIGHTED_INSTANCE
    note_item(f"weighted {n}-{r}-{k}")
    report = sepekr.weighted.verify_weighted_ekr(n, r, k)
    star_weight = sum(
        math.prod(math.comb(g - 1, k) for g in gaps(u, n))
        for u in separated_sets(n, r, k)
        if u[0] == 1
    )
    binomial = math.comb(n - 1, (k + 1) * r - 1)
    if not report.optimum == star_weight == binomial or not report.passed:
        problems.append(f"weighted optimum {report.optimum}, star {star_weight}, binomial {binomial}")
    elif report.nodes_explored != WEIGHTED_NODES:
        problems.append(f"weighted search took {report.nodes_explored} nodes, expected {WEIGHTED_NODES}")

    n, r, k = SCHRIJVER_INSTANCE
    note_item(f"schrijver {n}-{r}-{k}")
    graph = sepekr.graph.build_schrijver(n, r, k)
    chi = sepekr.graph.chromatic_number(graph)
    vertices = separated_sets(n, r, k)
    edges = sum(1 for a, b in itertools.combinations(vertices, 2) if not set(a) & set(b))
    if chi != n - 2 * r + 2 or (graph.num_vertices, graph.num_edges) != (len(vertices), edges):
        problems.append(
            f"schrijver chi {chi} (expected {n - 2 * r + 2}), "
            f"{graph.num_vertices} vertices, {graph.num_edges} edges (expected {len(vertices)}, {edges})"
        )
    counts = {
        "weighted.optimum": report.optimum,
        "weighted.nodes": report.nodes_explored,
        "schrijver.chi": chi,
        "schrijver.edges": graph.num_edges,
    }
    return 2, problems, counts


WORKLOADS = {"grid": grid, "census": census, "lemmas": lemmas, "invariants": invariants}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    tracer = spans.Tracer() if args.trace else None
    missing = tracer.install() if tracer else []
    note_item = tracer.set_item if tracer else (lambda item: None)
    with calibrate.SpeedSampler() as speed:
        start = time.perf_counter()
        try:
            items, problems, counts = WORKLOADS[args.workload](args.seed, note_item)
            failed = min(len(problems), items)
        except Exception as exc:  # an aborted workload fails every item; the runner reports it
            items = failed = NOMINAL_ITEMS[args.workload]
            problems, counts = [f"{type(exc).__name__}: {exc}"], {}
        wall = time.perf_counter() - start - speed.interrupted
    result = {
        "wall_s": wall * speed.factor,
        "raw_wall_s": wall,
        "speed_factor": speed.factor,
        "items": items,
        "failed": failed,
        "problems": problems[:10],
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(speed.factor)
        result["spans"] = tracer.spans
        result["untraced"] = missing
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
