"""Command-line front end: reproducible reports over the verification toolkit.

Exit codes: 0 success or verified, 1 verification failure, 2 usage error or
unwritable output path, 3 resource-limit abort.  Output for a fixed invocation
is byte-identical across runs.  The SEPEKR_THREADS environment variable is
validated (positive integer) and accepted for compatibility, but the library
is sequential, so results never depend on it.  `report` computes its grid
rows in two processes, this one and one forked helper, when fork exists, this
process may run on two or more CPUs, the grid has rows enough to pay for the
fork, no other thread is running, SIGCHLD is not ignored, and no profiler or
replaced library function observes the rows' calls (see _share_rows).  This
process computes every row the helper does not deliver, so the rows, stdout
bytes, errors and exit codes never depend on the helper.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import types
from itertools import islice

# report, enumerate, max-family and classes call only core and search; lemmas, weighted and
# graph import the other modules when they run, so that no command compiles a module it never calls
from .core import (
    DEFAULT_MAX_VERTICES, ResourceLimitError, SetFamily, count_separated, seconds_left,
    separated_universe, star_size_formula,
)
from .search import CLASS_MAX_VERTICES, extremal_classes, max_intersecting

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _read_thread_env() -> None:
    raw = os.environ.get("SEPEKR_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"SEPEKR_THREADS must be a positive integer, got {raw!r}")


def _positive(convert):
    """argparse type: convert the text, then reject values that are not positive."""
    def parse(text: str):
        value = convert(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="circle size")
    p.add_argument("--r", type=int, required=True, help="set size")
    p.add_argument("--k", type=int, required=True, help="separation parameter")


def _add_limit_args(p: argparse.ArgumentParser, default_vertices: int) -> None:
    p.add_argument(
        "--limit-vertices",
        type=_positive(int),
        default=default_vertices,
        help="abort instances with more vertices than this; a universe's V adjacency rows take"
        " V*V/8 bytes, built once in the search's labels, and a search's single-bit masks"
        " V*V/16 more",
    )


def _add_shared_args(p: argparse.ArgumentParser) -> None:
    """The options every subcommand takes; each calls this last, so its usage ends with them."""
    p.add_argument(
        "--limit-seconds",
        type=_positive(float),
        default=None,
        help="seconds for all of the command's work; exit 3 when they run out",
    )
    p.add_argument(
        "--format", choices=("json", "csv", "text"), default="text", help="output format"
    )
    p.add_argument("--output", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepekr",
        description="Exact bounds and verification for intersecting families of separated sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the k-separated r-sets of a circle")
    _add_instance_args(p)
    _add_shared_args(p)

    p = sub.add_parser("max-family", help="exact maximum intersecting family size")
    _add_instance_args(p)
    _add_limit_args(p, DEFAULT_MAX_VERTICES)
    _add_shared_args(p)

    p = sub.add_parser("classes", help="maximum families up to circle symmetry")
    _add_instance_args(p)
    p.add_argument(
        "--rotations-only",
        action="store_true",
        help="identify families under rotations only, not reflections",
    )
    _add_limit_args(p, CLASS_MAX_VERTICES)
    _add_shared_args(p)

    p = sub.add_parser("lemmas", help="run the compression verification suite")
    _add_instance_args(p)
    p.add_argument(
        "--samples", type=_positive(int), default=200, help="random maximal families to check"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled families")
    _add_shared_args(p)

    p = sub.add_parser("weighted", help="verify the weighted bound exactly")
    _add_instance_args(p)
    _add_limit_args(p, DEFAULT_MAX_VERTICES)
    _add_shared_args(p)

    p = sub.add_parser("graph", help="build a disjointness graph and compute invariants")
    p.add_argument("--kind", choices=("kneser", "schrijver"), required=True)
    p.add_argument("--n", type=int, required=True, help="circle size")
    p.add_argument("--r", type=int, required=True, help="set size")
    p.add_argument("--k", type=int, default=1, help="separation parameter (schrijver only)")
    p.add_argument("--alpha", action="store_true", help="compute the independence number")
    p.add_argument("--chi", action="store_true", help="compute the chromatic number")
    p.add_argument("--dimacs", help="also write the graph to this path in DIMACS format")
    _add_limit_args(p, DEFAULT_MAX_VERTICES)
    _add_shared_args(p)

    p = sub.add_parser("report", help="verify the bound across a parameter grid")
    p.add_argument("--grid", choices=("default", "quick"), default="default")
    _add_shared_args(p)

    return parser


def _cell(value) -> str:
    """One CSV cell or text value: booleans as true/false, None as empty."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _emit(args, record, rows, text, *, columns=()) -> None:
    """Write the result in args.format, calling only the builder for that format.

    record() gives the JSON value, rows() the flat CSV rows (dicts; the header
    is the first row's keys, or columns when there are no rows) and text()
    the plain text.  args.deadline is read between blocks of the JSON text
    and once before the write.
    """
    if args.format == "json":
        # the bytes of json.dumps(record(), indent=2), built in blocks of chunks
        chunks = json.JSONEncoder(indent=2).iterencode(record())
        blocks = []
        while block := "".join(islice(chunks, 1 << 16)):
            blocks.append(block)
            seconds_left(args.deadline, "writing the output")
        payload = "".join(blocks)
    elif args.format == "csv":
        table = rows()
        lines = [",".join(table[0] if table else columns)]
        lines.extend(",".join(_cell(v) for v in row.values()) for row in table)
        payload = "\n".join(lines)
    else:
        payload = text()
    if not payload.endswith("\n"):
        payload += "\n"
    seconds_left(args.deadline, "writing the output")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_enumerate(args) -> int:
    if args.n < (args.k + 1) * args.r:  # no separated set fits: the universe is empty
        family = SetFamily(args.n, args.r, args.k, ())
    else:
        seconds_left(args.deadline, "the universe")
        family = separated_universe(args.n, args.r, args.k, DEFAULT_MAX_VERTICES, args.deadline).vertices
        seconds_left(args.deadline, "the members")
    _emit(
        args,
        family.to_json_dict,
        lambda: [{"elems": " ".join(str(a) for a in s.elems)} for s in family],
        family.to_line,
        columns=("elems",),
    )
    return EXIT_OK


def _cmd_max_family(args) -> int:
    seconds_left(args.deadline, "the universe")
    result = max_intersecting(
        args.n, args.r, args.k, max_vertices=args.limit_vertices, deadline=args.deadline
    )
    row = dict(n=args.n, r=args.r, k=args.k, optimum=result.optimum, nodes=result.nodes_explored)
    _emit(
        args,
        result.to_json_dict,
        lambda: [row],
        lambda: f"optimum {result.optimum}\nwitness {result.witness.to_line()}",
    )
    return EXIT_OK


def _cmd_classes(args) -> int:
    seconds_left(args.deadline, "the universe")
    result = extremal_classes(
        args.n,
        args.r,
        args.k,
        rotations_only=args.rotations_only,
        max_vertices=args.limit_vertices,
        deadline=args.deadline,
    )
    classes = result.classes
    row = dict(
        n=args.n, r=args.r, k=args.k, optimum=result.optimum, classes=len(classes),
        nodes=result.nodes_explored,
    )
    lines = [f"optimum {result.optimum}", f"classes {len(classes)}"]
    _emit(
        args,
        result.to_json_dict,
        lambda: [row],
        lambda: "\n".join(lines + [c.to_line() for c in classes]),
    )
    return EXIT_OK


def _cmd_lemmas(args) -> int:
    import random

    from .compression import verify_compression_suite
    from .families import random_maximal_intersecting, star_family

    n, r, k = args.n, args.r, args.k
    rng = random.Random(f"{args.seed}:{n}:{r}:{k}")
    total = args.samples + 1
    failures = []
    for i in range(total):
        seconds_left(args.deadline, f"checking family {i + 1} of {total}")
        if i == 0:
            family = star_family(n, r, k, 1, deadline=args.deadline)
        else:
            family = random_maximal_intersecting(n, r, k, rng, deadline=args.deadline)
        report = verify_compression_suite(family, deadline=args.deadline)
        if not report.passed:
            failures.append((family, report))
    summary = dict(
        n=n, r=r, k=k, samples=args.samples, seed=args.seed,
        families_checked=total, all_passed=not failures,
    )

    def text() -> str:
        lines = [f"checked {total} intersecting families on n={n} r={r} k={k}"]
        for fam, rep in failures:
            failed = ",".join(c.clause_id for c in rep.clauses if not c.passed)
            lines.append(f"FAIL [{failed}] {fam.to_line()}")
        return "\n".join(lines if failures else lines + ["all clauses passed"])

    _emit(
        args,
        lambda: {
            **summary,
            "failures": [
                {"family": fam.to_json_dict(), "report": rep.to_json_dict()}
                for fam, rep in failures
            ],
        },
        lambda: [{**summary, "failures": len(failures)}],
        text,
    )
    return EXIT_OK if not failures else EXIT_VERIFICATION_FAILED


def _cmd_weighted(args) -> int:
    from .weighted import verify_weighted_ekr

    seconds_left(args.deadline, "the universe")
    report = verify_weighted_ekr(
        args.n, args.r, args.k, max_vertices=args.limit_vertices, deadline=args.deadline
    )
    _emit(
        args,
        report.to_json_dict,
        lambda: [report.to_json_dict()],
        lambda: f"optimum {report.optimum}\nstar_weight {report.star_weight}\n"
        f"binomial {report.binomial}\npass {_cell(report.passed)}",
    )
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _cmd_graph(args) -> int:
    from .graph import (
        build_kneser, build_schrijver, chromatic_number, export_dimacs, independence_number,
    )

    if args.kind == "kneser":
        graph = build_kneser(args.n, args.r, max_vertices=args.limit_vertices)
    else:
        graph = build_schrijver(args.n, args.r, args.k, max_vertices=args.limit_vertices)
    k = graph.k
    chi = alpha = None
    # chi comes first, so that its vertex limit fires before any alpha search is spent
    if args.chi:
        seconds_left(args.deadline, "chi")
        chi = chromatic_number(graph, deadline=args.deadline)
    if args.alpha:
        seconds_left(args.deadline, "alpha")
        alpha = independence_number(graph, deadline=args.deadline)
    num_edges = graph.edge_count(args.deadline)
    seconds_left(args.deadline, "the output")
    summary = dict(
        kind=args.kind, n=args.n, r=args.r, k=k, num_vertices=graph.num_vertices, num_edges=num_edges
    )
    if args.dimacs:
        export_dimacs(graph, args.dimacs, deadline=args.deadline)
    invariants = {"alpha": alpha, "chi": chi}
    computed = {name: value for name, value in invariants.items() if value is not None}
    heading = (
        f"{args.kind} n={args.n} r={args.r} k={k}: "
        f"{graph.num_vertices} vertices, {num_edges} edges"
    )
    _emit(
        args,
        lambda: {**summary, **computed, **graph.to_json_dict(args.deadline)},
        lambda: [{**summary, **invariants}],
        lambda: "\n".join([heading] + [f"{name} {value}" for name, value in computed.items()]),
    )
    return EXIT_OK


def default_grid() -> list[tuple[int, int, int, bool]]:
    """Rows (n, r, k, with_classes) of the standard verification grid."""
    rows: list[tuple[int, int, int, bool]] = []
    for r in (2, 3, 4):
        for n in range(2 * r, 15):
            rows.append((n, r, 1, n <= 12))
    for r in (2, 3):
        for n in range(3 * r, 16):
            rows.append((n, r, 2, n <= 14))
    for n in range(8, 17):
        rows.append((n, 2, 3, False))
    return rows


def _row_stage(n: int, r: int, k: int) -> str:
    return f"row n={n} r={r} k={k}"


def _report_row(n: int, r: int, k: int, with_classes: bool, deadline: float | None) -> dict:
    """One grid row: the optimum against the star size and, on the subgrid, the class count."""
    seconds_left(deadline, _row_stage(n, r, k))
    formula = star_size_formula(n, r, k)
    if with_classes:
        result = extremal_classes(n, r, k, max_vertices=DEFAULT_MAX_VERTICES, deadline=deadline)
        class_count: int | None = len(result.classes)
        multi_expected = k == 1 and n == 2 * r + 2
        class_ok: bool | None = class_count > 1 if multi_expected else class_count == 1
    else:
        result = max_intersecting(n, r, k, deadline=deadline)
        class_count = None
        class_ok = None
    return {
        "n": n,
        "r": r,
        "k": k,
        "optimum": result.optimum,
        "formula": formula,
        "match": result.optimum == formula,
        "classes": class_count,
        "class_ok": class_ok,
        "nodes": result.nodes_explored,
    }


# The least work, in vertices summed over the grid's rows, that pays for a helper.  Measured on a
# 2-CPU machine: the fork and the helper's cold first row cost about 3 ms; the quick grid's 50
# vertices are about 1 ms of rows (3.5-6.0 ms alone, 6.5-9.5 ms with a helper); the default
# grid's first 1012 vertices take about 6.5 ms, and all its 2692 run a third faster with one.
_HELPER_MIN_VERTICES = 1000

# (namespace, name, function) for every function the package's modules held when this one was
# imported, but this module's own: core and search, imported above, hold every one the rows reach
_AS_IMPORTED = [
    (space, name, value)
    for space in [vars(m) for n, m in list(sys.modules.items()) if n.startswith(f"{__package__}.")]
    for name, value in list(space.items())
    if isinstance(value, types.FunctionType)
    and value.__module__.startswith(f"{__package__}.") and value.__module__ != __name__
]


def _share_rows(grid: list, deadline: float | None, records: dict) -> int:
    """Compute rows into records while one forked helper computes others; the helper's count.

    The helper runs only when fork exists, this process may run on two or
    more CPUs, the grid has two or more rows holding _HELPER_MIN_VERTICES
    vertices or more in all (below that the fork and the helper's cold first
    row cost more than the rows it takes), no other thread is running
    (forking a process with threads can deadlock the child), SIGCHLD has its
    default action (so the helper's pid stays this process's to kill and
    reap), and nothing in this process observes the library's calls: no
    profiler is set and every library function is still the one imported
    (_AS_IMPORTED), so a tracer, profiler or test double that wraps one sees
    every row, as the helper's calls would go unseen.  Otherwise this
    returns 0 at once.

    Both processes take row indices from one pipe.  It is filled before the
    fork with fixed-width records, in one write of at most POSIX's least
    PIPE_BUF (512 bytes), which is atomic and never waits for a reader, and
    closed for writing, so each read takes one whole record.  The helper
    sends each row back on a second pipe as one JSON line, shorter than 512
    bytes and so one atomic write.  It never writes to stdout or stderr and
    leaves by os._exit, so buffers inherited from this process are never
    flushed twice.  It stops when the queue is empty, when a row raises, or
    when this process is gone.

    Once the queue is empty this process waits for the helper's rows while
    seconds are left before the deadline, then raises ResourceLimitError
    naming the first row not delivered.  Rows the helper does not deliver are
    left out of records.  The helper is killed, if still running, and reaped
    on every way out.
    """
    width = len(str(len(grid)))
    if not (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and 2 <= len(grid) <= 512 // width
        and sum(count_separated(*row[:3]) for row in grid) >= _HELPER_MIN_VERTICES
        and sys.getprofile() is None
        and all(space.get(name) is value for space, name, value in _AS_IMPORTED)
    ):
        return 0
    import select  # here, so that only a report that may fork loads these modules
    import signal
    import threading

    if threading.active_count() != 1 or signal.getsignal(signal.SIGCHLD) != signal.SIG_DFL:
        return 0
    queue, queue_w = os.pipe()
    results, results_w = os.pipe()
    os.write(queue_w, b"".join(b"%0*d" % (width, i) for i in range(len(grid))))
    os.close(queue_w)
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller computes every row
        pid = None
    if pid == 0:
        try:
            while os.getppid() == parent and (record := os.read(queue, width)):
                i = int(record)
                line = json.dumps([i, _report_row(*grid[i], deadline)]) + "\n"
                os.write(results_w, line.encode())
        finally:
            os._exit(0)
    os.close(results_w)
    try:
        while pid and (record := os.read(queue, width)):
            i = int(record)
            records[i] = _report_row(*grid[i], deadline)
        delivered, pending = 0, b""
        while pid and len(records) < len(grid):
            # rows already delivered are taken even when the time is up
            left = None if deadline is None else max(deadline - time.monotonic(), 0)
            if not select.select([results], [], [], left)[0]:
                first = min(set(range(len(grid))) - records.keys())
                seconds_left(deadline, _row_stage(*grid[first][:3]))
                continue  # select woke before the deadline
            chunk = os.read(results, 1 << 16)
            if not chunk:
                break  # the helper has left
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                i, row = json.loads(line)
                records[i] = row
            delivered += len(lines)
        return delivered
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(queue)
        os.close(results)


def _cmd_report(args) -> int:
    grid = default_grid() if args.grid == "default" else default_grid()[:5]
    started = time.monotonic()
    # with a helper, this process computes the rows it did not deliver, in grid order, so the
    # rows, errors and exit codes are this process's own whichever process ran a row
    records: dict[int, dict] = {}
    delivered = _share_rows(grid, args.deadline, records)
    out_rows = [
        records[i] if i in records else _report_row(*row, args.deadline)
        for i, row in enumerate(grid)
    ]
    elapsed = time.monotonic() - started
    all_ok = all(row["match"] and row["class_ok"] is not False for row in out_rows)

    def text() -> str:
        lines = [
            f"{'n':>3} {'r':>2} {'k':>2} {'optimum':>8} {'formula':>8} {'match':>6} {'classes':>8} {'nodes':>10}"
        ]
        for row in out_rows:
            classes = "-" if row["classes"] is None else str(row["classes"])
            lines.append(
                f"{row['n']:>3} {row['r']:>2} {row['k']:>2} {row['optimum']:>8} "
                f"{row['formula']:>8} {'ok' if row['match'] else 'FAIL':>6} "
                f"{classes:>8} {row['nodes']:>10}"
            )
        lines.append(f"verified {_cell(all_ok)}")
        return "\n".join(lines)

    _emit(
        args,
        lambda: {"grid": args.grid, "rows": out_rows, "all_verified": all_ok},
        lambda: out_rows,
        text,
    )
    processes = "2 processes" if delivered else "1 process"
    print(
        f"grid completed in {elapsed * 1000:.1f} ms, rows computed by {processes}", file=sys.stderr
    )
    return EXIT_OK if all_ok else EXIT_VERIFICATION_FAILED


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "max-family": _cmd_max_family,
    "classes": _cmd_classes,
    "lemmas": _cmd_lemmas,
    "weighted": _cmd_weighted,
    "graph": _cmd_graph,
    "report": _cmd_report,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.deadline = None if args.limit_seconds is None else time.monotonic() + args.limit_seconds
    try:
        _read_thread_env()
        return _HANDLERS[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
