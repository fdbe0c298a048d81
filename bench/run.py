"""Benchmark runner for sepekr: times one workload in fresh child processes.

    python3 bench/run.py --workload grid --seed 0 --seconds 20 --trace 0

Each repeat runs ``workloads.py`` in a new interpreter, one at a time, with
``src/`` on PYTHONPATH, and counts only if its own checks pass.  Repeats go on
until ``--seconds`` have passed and at least three are done.  With
``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` untraced and traced repeats alternate and the last line holds
the per-layer metrics, including the tracing overhead.  A summary goes to
stderr and every sample, count and span to ``.bench_out/``.  Metric names and
units come from ``BENCHMARK.json``; README.md explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import calibrate

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_LIMIT_S = 170  # a run must end within 180 s, builds aside
MIN_REPEATS = 3
SETUP_PROBES = 9
CALIBRATION_BLOCKS = 100  # about 0.04 s of reference loop between setup probes
SETUP_PROBE = "import time, sepekr; print(time.monotonic())"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def setup_samples(env: dict[str, str], deadline: float, probes: int) -> list[float]:
    """Reference seconds from spawning an interpreter to ``import sepekr`` completing in it."""
    samples = []
    reference = calibrate.reference_seconds(CALIBRATION_BLOCKS)
    for _ in range(probes):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=remaining(deadline), check=True,
        )
        seconds = float(proc.stdout) - spawned
        after = calibrate.reference_seconds(CALIBRATION_BLOCKS)
        samples.append(seconds * calibrate.speed_factor(reference, after))
        reference = after
    return samples


def repeat(workload: str, seed: int, trace: int, env: dict[str, str], deadline: float) -> dict:
    """One repeat in a fresh interpreter; a crash or timeout becomes one failed item."""
    argv = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        return {"items": 1, "failed": 1, "problems": ["repeat timed out"], "crashed": True}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:]
        return {"items": 1, "failed": 1, "problems": [f"repeat exited {proc.returncode}: {tail}"],
                "crashed": True}
    return json.loads(proc.stdout.splitlines()[-1])


def count_problems(workload: str, runs: dict[int, list[dict]], count_names: list[str]) -> list[str]:
    """Counts must repeat exactly within a run; a change from the recorded counts is only noted."""
    problems, counts = [], {}
    for group in runs.values():
        seen = [{**r["counts"], **{m: r["layers"][m] for m in count_names if "layers" in r}}
                for r in group]
        problems += [f"counts differ between repeats: {seen[0]} vs {c}" for c in seen[1:] if c != seen[0]]
        counts.update(seen[0] if seen else {})
    recorded = json.loads((BENCH / "counts.json").read_text())[workload]
    changed = {k: (recorded[k], v) for k, v in counts.items() if k in recorded and recorded[k] != v}
    if changed:
        print(f"note: counts differ from bench/counts.json (recorded, not gated): {changed}",
              file=sys.stderr)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "sepekr" / "__init__.py").is_file():
        print(f"no sepekr sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    setup = []
    if not args.trace:
        try:
            setup_samples(env, deadline, 1)  # warm-up: writes the byte-code caches
            setup = setup_samples(env, deadline, SETUP_PROBES)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"cannot import sepekr: {exc}", file=sys.stderr)
            return 1

    modes = (0, 1) if args.trace else (0,)
    min_cycles = 2 if args.trace else MIN_REPEATS
    runs: dict[int, list[dict]] = {0: [], 1: []}
    started = time.monotonic()
    while True:
        for mode in modes:
            runs[mode].append(repeat(args.workload, args.seed, mode, env, deadline))
        cycles = len(runs[modes[-1]])
        elapsed = time.monotonic() - started
        if any(r.get("crashed") for r in runs[0] + runs[1]):
            break
        if cycles >= min_cycles and elapsed >= args.seconds:
            break
        if time.monotonic() + 1.5 * elapsed / cycles > deadline:
            break

    repeats = runs[0] + runs[1]
    attempted = sum(r["items"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    problems = [p for r in repeats for p in r["problems"]]
    crashed = any(r.get("crashed") for r in repeats)
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if not crashed:
        count_names = [m for m, unit in layer_units.items() if unit == "count"]
        problems += count_problems(args.workload, runs, count_names)
    correct = failed == 0 and not problems

    plain_walls = [r["wall_s"] for r in runs[0] if not r.get("crashed")]
    if crashed or not plain_walls:
        metrics = {}
    elif args.trace:
        traced = runs[1]
        # counts repeat exactly (count_problems checks), so the first traced repeat gives them
        values = {m: traced[0]["layers"][m] if layer_units[m] == "count"
                  else median(r["layers"][m] for r in traced) for m in traced[0]["layers"]}
        traced_walls = [r["wall_s"] for r in traced]
        values["trace.wall_s"] = median(traced_walls)
        values["trace.overhead_s"] = median(traced_walls) - median(plain_walls)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in layer_units.items()}
        untraced = sorted({name for r in traced for name in r["untraced"]})
        if untraced:
            print(f"note: not traced, the package no longer has {untraced}", file=sys.stderr)
    else:
        values = {
            "wall_s": median(plain_walls),
            "items_per_s": median(r["items"] / r["wall_s"] for r in runs[0]),
            "setup_s": median(setup),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in runs[0]),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    OUT.mkdir(exist_ok=True)
    details = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "setup_s": setup, "repeats": runs[0], "traced_repeats": runs[1], "problems": problems,
        "metrics": metrics,
    }))
    summary = (f"{args.workload} seed {args.seed}: {len(plain_walls)} untraced repeats, "
               f"wall_s median {median(plain_walls) if plain_walls else float('nan'):.4f} "
               f"max {max(plain_walls, default=float('nan')):.4f}; "
               f"failed {failed}/{attempted} items (failed_frac {failed / max(attempted, 1):.4f})")
    print(summary, file=sys.stderr)
    for problem in problems[:10]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"details in {details.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
