"""Command-line front end: reproducible reports over the verification toolkit.

Exit codes: 0 success or verified, 1 verification failure, 2 usage error or
unwritable output path, 3 resource-limit abort.  Output for a fixed invocation
is byte-identical across runs.  The SEPEKR_THREADS environment variable is
validated (positive integer) and accepted for compatibility, but the library
is sequential, so results never depend on it.  Every command, `report`
included, runs in this one process: `report` computes its grid rows one after
another, in grid order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import islice

# report, enumerate, max-family and classes call only core and search; lemmas, weighted and
# graph import the other modules when they run, so that no command compiles a module it never calls
from .core import (
    DEFAULT_MAX_VERTICES, ResourceLimitError, SetFamily, seconds_left, separated_universe,
    star_size_formula,
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

    limits = dict(max_vertices=args.limit_vertices, deadline=args.deadline)
    if args.kind == "kneser":
        graph = build_kneser(args.n, args.r, **limits)
    else:
        graph = build_schrijver(args.n, args.r, args.k, **limits)
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


def _report_row(n: int, r: int, k: int, with_classes: bool, deadline: float | None) -> dict:
    """One grid row: the optimum against the star size and, on the subgrid, the class count."""
    seconds_left(deadline, f"row n={n} r={r} k={k}")
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


def _cmd_report(args) -> int:
    grid = default_grid() if args.grid == "default" else default_grid()[:5]
    started = time.monotonic()
    out_rows = [_report_row(*row, args.deadline) for row in grid]
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
    print(f"grid completed in {elapsed * 1000:.1f} ms", file=sys.stderr)
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
