"""Acceptance gate: one test per shipped criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from sepekr import (
    build_kneser,
    build_schrijver,
    chromatic_number,
    enumerate_separated,
    expand,
    extremal_classes,
    independence_number,
    max_intersecting,
    random_maximal_intersecting,
    star_size_formula,
    verify_compression_suite,
    verify_weighted_ekr,
    weight,
)

from helpers import exceptional_members, least_image


def grid_main() -> list[tuple[int, int, int]]:
    """The standard verification grid over (n, r, k)."""
    rows = [(n, r, 1) for r in (2, 3, 4) for n in range(2 * r, 15)]
    rows += [(n, r, 2) for r in (2, 3) for n in range(3 * r, 16)]
    rows += [(n, 2, 3) for n in range(8, 17)]
    return rows


def report(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_maximum_size_equals_star_formula_on_grid():
    started = time.monotonic()
    bad = []
    for n, r, k in grid_main():
        optimum = max_intersecting(n, r, k).optimum
        if optimum != math.comb(n - k * r - 1, r - 1):
            bad.append((n, r, k, optimum))
    elapsed = time.monotonic() - started
    ok = not bad and elapsed < 300
    report(
        "max-family size bound on full grid",
        ok,
        f"{len(grid_main())} instances, {elapsed:.1f}s, mismatches: {bad}",
    )
    assert ok, bad


def test_02_extremal_class_census():
    bad = []
    for r in (2, 3, 4):
        singles = [2 * r, 2 * r + 1] + list(range(2 * r + 3, 13))
        for n in singles:
            count = len(extremal_classes(n, r, 1).classes)
            if count != 1:
                bad.append((n, r, 1, count))
        n = 2 * r + 2
        classes = extremal_classes(n, r, 1).classes
        if len(classes) <= 1:
            bad.append((n, r, 1, len(classes)))
        for i in range(1, r // 2 + 1):
            # each representative is its class's least image, so the family's is one of them
            least = least_image(exceptional_members(r, i), n)
            if not any(tuple(s.elems for s in rep) == least for rep in classes):
                bad.append((n, r, 1, f"missing exceptional family {i}"))
    for r in (2, 3):
        for n in range(3 * r, 15):
            count = len(extremal_classes(n, r, 2, max_vertices=5000).classes)
            if count != 1:
                bad.append((n, r, 2, count))
    ok = not bad
    report("extremal class census", ok, f"deviations: {bad}")
    assert ok, bad


def test_03_star_counts_and_boundary_universe():
    bad = []
    for n, r, k in grid_main():
        universe = enumerate_separated(n, r, k)
        through_1 = sum(1 for s in universe if 1 in s)
        if through_1 != math.comb(n - k * r - 1, r - 1):
            bad.append(("star", n, r, k, through_1))
        if through_1 != star_size_formula(n, r, k):
            bad.append(("formula", n, r, k))
        if (len(universe) == k + 1) != (n == (k + 1) * r):
            bad.append(("boundary", n, r, k, len(universe)))
    ok = not bad
    report("star counting formulas", ok, f"{len(grid_main())} instances, deviations: {bad}")
    assert ok, bad


def test_04_compression_suite_randomized():
    points = [
        (n, r, k)
        for k in (1, 2)
        for r in (2, 3)
        for n in range((k + 1) * r + 1, 13)
    ]
    failures = []
    checked = 0
    for n, r, k in points:
        rng = random.Random(f"acceptance:{n}:{r}:{k}")
        for _ in range(200):
            fam = random_maximal_intersecting(n, r, k, rng)
            result = verify_compression_suite(fam)
            checked += 1
            if not result.passed:
                failures.append((n, r, k, fam.to_line()))
    ok = not failures
    report(
        "compression clause suite",
        ok,
        f"{checked} families across {len(points)} points, failures: {len(failures)}",
    )
    assert ok, failures


def test_05_weighted_bound():
    points = [(n, 2, 1) for n in range(8, 13)]
    points += [(n, 3, 1) for n in (12, 13)]
    points += [(n, 2, 2) for n in (12, 13)]
    bad = []
    expansions = 0
    for n, r, k in points:
        outcome = verify_weighted_ekr(n, r, k)
        if not outcome.passed:
            bad.append((n, r, k, outcome.to_json_dict()))
        for s in enumerate_separated(n, r, k):
            expansions += 1
            if len(expand(s, k)) != weight(s, k):
                bad.append((n, r, k, s.elems))
    ok = not bad
    report(
        "weighted bound",
        ok,
        f"{len(points)} points, {expansions} expansion identities, deviations: {bad}",
    )
    assert ok, bad


def test_06_graph_invariants():
    bad = []
    petersen = build_kneser(5, 2)
    if independence_number(petersen) != 4:
        bad.append("alpha petersen")
    if chromatic_number(petersen) != 3:
        bad.append("chi petersen")
    for n in (5, 7, 9):
        if chromatic_number(build_schrijver(n, 2, 1)) != n - 2:
            bad.append(f"chi schrijver n={n}")
    for n, r, k in grid_main():
        if k != 1:
            continue
        alpha = independence_number(build_schrijver(n, r, 1))
        if alpha != math.comb(n - r - 1, r - 1):
            bad.append(f"alpha schrijver {(n, r)}")
    ok = not bad
    report("graph invariants", ok, f"deviations: {bad}")
    assert ok, bad


def test_07_report_determinism():
    argv = [sys.executable, "-m", "sepekr", "report", "--grid", "default"]
    env_base = dict(os.environ)
    outs = []
    for threads in ("1", "1", "8"):
        env = dict(env_base, SEPEKR_THREADS=threads)
        proc = subprocess.run(argv, capture_output=True, env=env)
        outs.append((proc.returncode, proc.stdout))
    codes = [code for code, _ in outs]
    frozen = (Path(__file__).parent / "data" / "report_default.txt").read_bytes()
    ok = (
        codes == [0, 0, 0]
        and outs[0][1] == outs[1][1]
        and outs[0][1] == outs[2][1]
        and b"verified true" in outs[0][1]
        and outs[0][1] == frozen
    )
    report(
        "deterministic report",
        ok,
        f"exit codes {codes}, identical bytes across reruns and thread settings: "
        f"{outs[0][1] == outs[1][1] == outs[2][1]}, matches tests/data/report_default.txt: "
        f"{outs[0][1] == frozen}",
    )
    assert ok
