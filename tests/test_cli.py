"""Command-line interface: formats, exit codes, determinism."""

import json
import os
import re
import signal
import subprocess
import sys
import sysconfig
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepekr
from sepekr.cli import run


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out


# === enumerate ===


def test_enumerate_text(capsys):
    assert run(["enumerate", "--n", "5", "--r", "2", "--k", "1"]) == 0
    assert out_of(capsys) == "5 2 1 : {1,3} {1,4} {2,4} {2,5} {3,5}\n"


def test_enumerate_csv(capsys):
    assert run(["enumerate", "--n", "4", "--r", "2", "--k", "1", "--format", "csv"]) == 0
    assert out_of(capsys) == "elems\n1 3\n2 4\n"


def test_enumerate_json(capsys):
    assert run(["enumerate", "--n", "6", "--r", "2", "--k", "2", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data == {"n": 6, "r": 2, "k": 2, "sets": [[1, 4], [2, 5], [3, 6]]}


def test_enumerate_to_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert run(["enumerate", "--n", "4", "--r", "2", "--k", "1", "--output", str(target)]) == 0
    assert out_of(capsys) == ""
    assert target.read_text() == "4 2 1 : {1,3} {2,4}\n"


# === max-family and classes ===


def test_max_family_text(capsys):
    assert run(["max-family", "--n", "7", "--r", "2", "--k", "1"]) == 0
    assert out_of(capsys) == "optimum 4\nwitness 7 2 1 : {1,3} {1,4} {1,5} {1,6}\n"


def test_max_family_csv(capsys):
    assert run(["max-family", "--n", "6", "--r", "2", "--k", "1", "--format", "csv"]) == 0
    header, row = out_of(capsys).splitlines()
    assert header == "n,r,k,optimum,nodes"
    fields = row.split(",")
    assert fields[:4] == ["6", "2", "1", "3"]
    assert int(fields[4]) > 0


def test_classes_text(capsys):
    assert run(["classes", "--n", "6", "--r", "2", "--k", "1"]) == 0
    assert out_of(capsys) == (
        "optimum 3\nclasses 2\n"
        "6 2 1 : {1,3} {1,4} {1,5}\n"
        "6 2 1 : {1,3} {1,5} {3,5}\n"
    )


def test_classes_json_with_rotations_only(capsys):
    assert run(
        ["classes", "--n", "6", "--r", "2", "--k", "1", "--rotations-only", "--format", "json"]
    ) == 0
    data = json.loads(out_of(capsys))
    assert data["optimum"] == 3
    assert len(data["classes"]) == 2
    assert data["witness"] == [[1, 3], [1, 4], [1, 5]]


# === lemmas ===


def test_lemmas_text(capsys):
    code = run(["lemmas", "--n", "8", "--r", "2", "--k", "1", "--samples", "5"])
    assert code == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "checked 6 intersecting families on n=8 r=2 k=1"
    assert lines[1] == "all clauses passed"


def test_lemmas_json(capsys):
    code = run(
        ["lemmas", "--n", "7", "--r", "2", "--k", "1", "--samples", "3", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out_of(capsys))
    assert data["families_checked"] == 4
    assert data["all_passed"] is True
    assert data["failures"] == []


def test_lemmas_seed_changes_nothing_about_verdict(capsys):
    for seed in ("0", "1", "99"):
        code = run(
            ["lemmas", "--n", "9", "--r", "3", "--k", "1", "--samples", "4", "--seed", seed]
        )
        assert code == 0
    capsys.readouterr()


def test_lemmas_reports_every_failing_family(capsys, monkeypatch):
    def fail(images, n, k, deadline=None):
        witness = sepekr.core.CircSet(n, sepekr.core.mask_elems(next(iter(images))))
        return sepekr.compression.ClauseResult("collision-structure", False, (witness,))

    sepekr.core._universe.cache_clear()  # so that the verdicts are built under the fault
    monkeypatch.setattr("sepekr.compression._collision_clause", fail)
    argv = ["lemmas", "--n", "9", "--r", "3", "--k", "1", "--samples", "2"]
    assert run(argv) == 1
    lines = out_of(capsys).splitlines()
    assert lines[0] == "checked 3 intersecting families on n=9 r=3 k=1"
    assert len(lines) == 4
    assert all(line.startswith("FAIL [collision-structure] 9 3 1 : {") for line in lines[1:])

    assert run(argv + ["--format", "json"]) == 1
    data = json.loads(out_of(capsys))
    assert data["all_passed"] is False
    assert len(data["failures"]) == 3
    for failure in data["failures"]:
        family, report = failure["family"], failure["report"]
        assert (family["n"], family["r"], family["k"]) == (9, 3, 1)
        assert report["passed"] is False
        failed = [c for c in report["clauses"] if not c["passed"]]
        assert [c["clause_id"] for c in failed] == ["collision-structure"]
        assert failed[0]["witnesses"] == [{"n": 9, "elems": family["sets"][0]}]

    assert run(argv + ["--format", "csv"]) == 1
    header, row = out_of(capsys).splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert record["all_passed"] == "false"
    assert record["failures"] == "3"


# === weighted ===


def test_weighted_text(capsys):
    assert run(["weighted", "--n", "8", "--r", "2", "--k", "1"]) == 0
    assert out_of(capsys) == "optimum 35\nstar_weight 35\nbinomial 35\npass true\n"


def test_weighted_csv(capsys):
    assert run(["weighted", "--n", "9", "--r", "2", "--k", "1", "--format", "csv"]) == 0
    assert out_of(capsys) == (
        "n,r,k,optimum,star_weight,binomial,pass\n9,2,1,56,56,56,true\n"
    )


def test_weighted_out_of_regime_is_usage_error(capsys):
    assert run(["weighted", "--n", "7", "--r", "2", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


# === graph ===


def test_graph_text_with_invariants(capsys):
    code = run(["graph", "--kind", "kneser", "--n", "5", "--r", "2", "--alpha", "--chi"])
    assert code == 0
    assert out_of(capsys) == "kneser n=5 r=2 k=0: 10 vertices, 15 edges\nalpha 4\nchi 3\n"


def test_graph_dimacs_export(tmp_path, capsys):
    target = tmp_path / "g.dimacs"
    code = run(
        ["graph", "--kind", "schrijver", "--n", "5", "--r", "2", "--k", "1", "--dimacs", str(target)]
    )
    assert code == 0
    assert out_of(capsys) == "schrijver n=5 r=2 k=1: 5 vertices, 5 edges\n"
    assert target.read_text() == "p edge 5 5\ne 1 3\ne 1 4\ne 2 4\ne 2 5\ne 3 5\n"


def test_graph_json(capsys):
    code = run(
        ["graph", "--kind", "schrijver", "--n", "5", "--r", "2", "--chi", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out_of(capsys))
    assert data["num_vertices"] == 5 and data["num_edges"] == 5
    assert data["chi"] == 3
    assert data["vertices"][0] == [1, 3]


# === report ===


def test_report_quick_verifies(capsys):
    assert run(["report", "--grid", "quick"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0].split() == ["n", "r", "k", "optimum", "formula", "match", "classes", "nodes"]
    assert len(lines) == 7  # header, five rows, verdict
    assert lines[-1] == "verified true"
    assert all("ok" in line for line in lines[1:-1])


def test_report_quick_csv(capsys):
    assert run(["report", "--grid", "quick", "--format", "csv"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "n,r,k,optimum,formula,match,classes,class_ok,nodes"
    assert lines[1].startswith("4,2,1,1,1,true,1,true,")
    assert lines[3].startswith("6,2,1,3,3,true,2,true,")  # two classes at n = 2r+2


def test_report_is_byte_identical_across_runs_and_threads(capsys, monkeypatch):
    assert run(["report", "--grid", "quick", "--format", "json"]) == 0
    first = out_of(capsys)
    assert run(["report", "--grid", "quick", "--format", "json"]) == 0
    second = out_of(capsys)
    monkeypatch.setenv("SEPEKR_THREADS", "8")
    assert run(["report", "--grid", "quick", "--format", "json"]) == 0
    third = out_of(capsys)
    assert first == second == third
    assert json.loads(first)["all_verified"] is True


def test_report_measures_the_optimum_instead_of_reading_the_formula(capsys, monkeypatch):
    """The solve starts from the star; its floor is the star's size, never the formula."""
    formula = sepekr.star_size_formula
    monkeypatch.setattr("sepekr.cli.star_size_formula", lambda n, r, k: formula(n, r, k) + 1)
    assert run(["report", "--grid", "quick"]) != 0
    lines = out_of(capsys).splitlines()
    assert all(line.split()[5] == "FAIL" for line in lines[1:-1])
    assert lines[-1] == "verified false"


# === golden output: every subcommand in every format ===

DATA = Path(__file__).resolve().parent / "data" / "cli"
GOLDEN = {
    "enumerate": ["enumerate", "--n", "5", "--r", "2", "--k", "1"],
    "max-family": ["max-family", "--n", "8", "--r", "2", "--k", "1"],
    "classes": ["classes", "--n", "8", "--r", "3", "--k", "1"],
    "lemmas": ["lemmas", "--n", "9", "--r", "3", "--k", "1", "--samples", "5", "--seed", "3"],
    "weighted": ["weighted", "--n", "9", "--r", "2", "--k", "1"],
    "graph": ["graph", "--kind", "schrijver", "--n", "7", "--r", "2", "--k", "1", "--alpha", "--chi"],
    "report": ["report", "--grid", "quick"],
}
SUFFIX = {"text": "txt", "json": "json", "csv": "csv"}
CSV_HEADER = {
    "enumerate": "elems",
    "max-family": "n,r,k,optimum,nodes",
    "classes": "n,r,k,optimum,classes,nodes",
    "lemmas": "n,r,k,samples,seed,families_checked,all_passed,failures",
    "weighted": "n,r,k,optimum,star_weight,binomial,pass",
    "graph": "kind,n,r,k,num_vertices,num_edges,alpha,chi",
    "report": "n,r,k,optimum,formula,match,classes,class_ok,nodes",
}


@pytest.mark.parametrize("fmt", sorted(SUFFIX))
@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_matches_golden_file(capsys, command, fmt):
    """Stdout equals tests/data/cli/<command>.<suffix>, written by `sepekr <argv> --format <fmt>`."""
    assert run(GOLDEN[command] + ["--format", fmt]) == 0
    assert out_of(capsys) == (DATA / f"{command}.{SUFFIX[fmt]}").read_text()


CENSUS = {
    "classes_16_7_1.txt": ["classes", "--n", "16", "--r", "7", "--k", "1"],
    "classes_18_8_1_rotations.txt": ["classes", "--n", "18", "--r", "8", "--k", "1", "--rotations-only"],
}


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_census_matches_golden_file(capsys, name):
    """The exceptional-circle censuses (12 and 30 classes) are frozen byte for byte."""
    assert run(CENSUS[name]) == 0
    assert out_of(capsys) == (DATA / name).read_text()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_csv_has_a_header_and_rows_of_its_width(capsys, command):
    assert run(GOLDEN[command] + ["--format", "csv"]) == 0
    header, *rows = out_of(capsys).splitlines()
    assert header == CSV_HEADER[command]
    assert rows and all(row.count(",") == header.count(",") for row in rows)


def test_empty_family_csv_is_the_header_alone(capsys):
    assert run(["enumerate", "--n", "5", "--r", "3", "--k", "1", "--format", "csv"]) == 0
    assert out_of(capsys) == "elems\n"


def test_graph_csv_leaves_unrequested_invariants_empty(capsys):
    argv = ["graph", "--kind", "schrijver", "--n", "7", "--r", "2", "--chi", "--format", "csv"]
    assert run(argv) == 0
    assert out_of(capsys).splitlines()[1] == "schrijver,7,2,1,14,49,,5"


# === report runs in one process ===


@pytest.fixture
def one_process(monkeypatch):
    """Make os.fork fail the test, so that a report must compute every row in this process."""

    def no_fork():
        raise AssertionError("report started a second process")

    monkeypatch.setattr(os, "fork", no_fork)


REPORT_RUNS = {
    "default-text": (["report", "--grid", "default"], DATA.parent / "report_default.txt"),
    "quick-json": (["report", "--grid", "quick", "--format", "json"], DATA / "report.json"),
    "quick-csv": (["report", "--grid", "quick", "--format", "csv"], DATA / "report.csv"),
}


@pytest.mark.parametrize("name", sorted(REPORT_RUNS))
def test_report_gives_the_frozen_bytes(capsys, one_process, name):
    argv, frozen = REPORT_RUNS[name]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == frozen.read_text()
    assert re.fullmatch(r"grid completed in \d+\.\d ms\n", captured.err)


def test_report_stays_in_one_process_on_two_cpus(capsys, monkeypatch, one_process):
    # neither the quick grid's 50 vertices nor the default grid's 2692 start a second process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert sum(sepekr.core.count_separated(*row[:3]) for row in sepekr.cli.default_grid()[:5]) == 50
    assert run(["report", "--grid", "quick"]) == 0
    assert out_of(capsys) == (DATA / "report.txt").read_text()
    assert run(["report", "--grid", "default"]) == 0
    assert out_of(capsys) == (DATA.parent / "report_default.txt").read_text()


def test_report_never_forks_beside_a_second_thread(capsys, one_process):
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        assert run(["report", "--grid", "quick"]) == 0
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive()
    assert out_of(capsys) == (DATA / "report.txt").read_text()


def test_report_never_forks_while_sigchld_is_ignored(capsys, one_process):
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert run(["report", "--grid", "quick"]) == 0
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert out_of(capsys) == (DATA / "report.txt").read_text()


@pytest.mark.parametrize("observed", ["sepekr.cli.extremal_classes", "sepekr.search._search", "profiler"])
def test_report_never_forks_while_the_library_is_observed(capsys, monkeypatch, one_process, observed):
    # a wrapper or a profiler sees the calls of its own process, which computes every row
    calls = []
    previous = sys.getprofile()
    if observed == "profiler":
        sys.setprofile(lambda frame, event, arg: calls.append(event))
    else:
        module, _, name = observed.rpartition(".")
        real = getattr(sys.modules[module], name)
        monkeypatch.setattr(observed, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    try:
        assert run(["report", "--grid", "quick"]) == 0
    finally:
        sys.setprofile(previous)
    assert len(calls) >= 5  # one or more for each of the five rows
    assert out_of(capsys) == (DATA / "report.txt").read_text()


# === exit codes and environment ===


def test_usage_error_on_bad_instance(capsys):
    assert run(["max-family", "--n", "5", "--r", "3", "--k", "1"]) == 2
    assert run(["enumerate", "--n", "5", "--r", "0", "--k", "1"]) == 2
    capsys.readouterr()


def test_resource_error_on_vertex_limit(capsys):
    code = run(["max-family", "--n", "12", "--r", "3", "--k", "1", "--limit-vertices", "5"])
    assert code == 3
    captured = capsys.readouterr()
    assert "resource limit" in captured.err


def test_lemmas_checks_the_vertex_limit_before_enumerating(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated a universe over the vertex limit")

    monkeypatch.setattr("sepekr.core.separated_masks", refuse)
    assert run(["lemmas", "--n", "60", "--r", "8", "--k", "1", "--samples", "1"]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_lemmas_obeys_the_time_limit(capsys):
    started = time.monotonic()
    argv = ["lemmas", "--n", "20", "--r", "4", "--k", "2", "--samples", "1000000"]
    assert run(argv + ["--limit-seconds", "0.5"]) == 3
    assert time.monotonic() - started < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "time limit exceeded before checking family" in captured.err


def test_max_family_canonicalises_inside_its_time_limit(capsys, monkeypatch):
    real = sepekr.search._search

    def slow_solve(*args, **kwargs):
        result = real(*args, **kwargs)
        time.sleep(0.3)
        return result

    monkeypatch.setattr("sepekr.search._search", slow_solve)
    argv = ["max-family", "--n", "9", "--r", "3", "--k", "1"]
    assert run(argv + ["--limit-seconds", "0.2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "time limit exceeded before canonicalising the witness" in captured.err
    assert run(argv + ["--limit-seconds", "30"]) == 0
    assert out_of(capsys).startswith("optimum 10\n")


def test_enumerate_aborts_above_the_vertex_limit_without_building_rows(capsys, monkeypatch):
    # (31,4,1) has 20150 sets, just above the default limit of 20000.
    assert run(["enumerate", "--n", "31", "--r", "4", "--k", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resource limit" in captured.err

    def refuse(*args):
        raise AssertionError("built disjointness rows for enumerate")

    monkeypatch.setattr("sepekr.core.disjointness_rows", refuse)
    assert run(["enumerate", "--n", "13", "--r", "3", "--k", "1"]) == 0
    assert out_of(capsys).startswith("13 3 1 : {1,3,5} ")


def test_enumerate_obeys_the_time_limit(capsys, monkeypatch, tmp_path):
    # (30,4,1) has 17250 sets, under the vertex limit; building their CircSets alone takes
    # tens of milliseconds, so the deadline is read again once they are built
    target = tmp_path / "sets.json"
    argv = ["enumerate", "--n", "30", "--r", "4", "--k", "1", "--format", "json"]
    assert run(argv + ["--output", str(target), "--limit-seconds", "0.01"]) == 3
    captured = capsys.readouterr()
    assert "time limit exceeded" in captured.err
    assert captured.out == ""
    assert not target.exists()
    real = sepekr.core.DisjointnessGraph.subfamily

    def slow_members(graph, mask):
        time.sleep(0.3)
        return real(graph, mask)

    sepekr.core._universe.cache_clear()  # so that the members are built again
    with monkeypatch.context() as patch:
        patch.setattr(sepekr.core.DisjointnessGraph, "subfamily", slow_members)
        assert run(argv + ["--output", str(target), "--limit-seconds", "0.2"]) == 3
    captured = capsys.readouterr()
    assert "time limit exceeded before the members" in captured.err
    assert captured.out == ""
    assert not target.exists()
    assert run(["enumerate", "--n", "5", "--r", "2", "--k", "1", "--limit-seconds", "30"]) == 0
    assert out_of(capsys) == "5 2 1 : {1,3} {1,4} {2,4} {2,5} {3,5}\n"


def test_weighted_star_keeps_a_vertex_limit_above_the_default(capsys, monkeypatch):
    over = sepekr.core.DEFAULT_MAX_VERTICES + 1
    monkeypatch.setattr("sepekr.core.count_separated", lambda n, r, k: over)
    argv = ["weighted", "--n", "15", "--r", "3", "--k", "1"]
    assert run(argv + ["--limit-vertices", str(over)]) == 0
    assert run(argv) == 3
    capsys.readouterr()


_SMALL = st.integers(min_value=-3, max_value=12)
_LIMITS = ["--limit-vertices", "120", "--limit-seconds", "0.25"]


@settings(deadline=None)
@given(n=_SMALL, r=_SMALL, k=_SMALL)
def test_any_instance_arguments_exit_with_a_documented_code(n, r, k):
    instance = ["--n", str(n), "--r", str(r), "--k", str(k)]
    invocations = [
        ["enumerate", *instance],
        ["max-family", *instance, *_LIMITS],
        ["classes", *instance, *_LIMITS],
        ["lemmas", *instance, "--samples", "1"],
        ["lemmas", *instance, "--samples", "1", "--limit-seconds", "0.25"],
        ["weighted", *instance, *_LIMITS],
        ["graph", "--kind", "kneser", *instance, *_LIMITS],
        ["graph", "--kind", "schrijver", *instance, *_LIMITS],
    ]
    for argv in invocations:
        assert run(argv + ["--output", os.devnull]) in (0, 1, 2, 3), argv


def test_graph_checks_the_colouring_limit_before_alpha(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("computed alpha although chi is over its limit")

    monkeypatch.setattr("sepekr.graph.independence_number", refuse)
    assert run(["graph", "--kind", "kneser", "--n", "10", "--r", "3", "--alpha", "--chi"]) == 3
    assert "colouring limit" in capsys.readouterr().err


def test_graph_chi_obeys_the_time_limit(capsys):
    started = time.monotonic()
    # SG(11,4,1) takes about 0.5-0.7 raw s to colour exactly
    argv = ["graph", "--kind", "schrijver", "--n", "11", "--r", "4", "--k", "1", "--chi"]
    assert run(argv + ["--limit-seconds", "0.1"]) == 3
    assert time.monotonic() - started < 10
    assert "time limit" in capsys.readouterr().err


def test_graph_chi_and_alpha_share_one_time_limit(capsys, monkeypatch):
    def slow_chi(graph, **kwargs):
        time.sleep(0.3)
        return 3

    monkeypatch.setattr("sepekr.graph.chromatic_number", slow_chi)
    argv = ["graph", "--kind", "schrijver", "--n", "5", "--r", "2", "--k", "1", "--chi", "--alpha"]
    assert run(argv + ["--limit-seconds", "0.2"]) == 3
    assert "time limit exceeded before alpha" in capsys.readouterr().err
    assert run(argv + ["--limit-seconds", "30"]) == 0
    assert out_of(capsys).endswith("alpha 2\nchi 3\n")


def test_graph_time_limit_covers_the_build(capsys, monkeypatch):
    real = sepekr.graph.build_schrijver

    def slow_build(*args, **kwargs):
        time.sleep(0.3)
        return real(*args, **kwargs)

    monkeypatch.setattr("sepekr.graph.build_schrijver", slow_build)
    sepekr.core._universe.cache_clear()  # so that the build enumerates the sets, reading the deadline
    argv = ["graph", "--kind", "schrijver", "--n", "7", "--r", "2", "--alpha"]
    assert run(argv + ["--limit-seconds", "0.2"]) == 3
    assert "time limit exceeded before the sets from element 1" in capsys.readouterr().err


def test_graph_time_limit_covers_the_build_without_invariants(capsys, monkeypatch):
    real = sepekr.graph.build_kneser

    def slow_build(*args, **kwargs):
        time.sleep(0.3)
        return real(*args, **kwargs)

    monkeypatch.setattr("sepekr.graph.build_kneser", slow_build)
    sepekr.core._universe.cache_clear()  # so that the build enumerates the sets, reading the deadline
    argv = ["graph", "--kind", "kneser", "--n", "7", "--r", "2", "--format", "json"]
    assert run(argv + ["--limit-seconds", "0.2"]) == 3
    captured = capsys.readouterr()
    assert "time limit exceeded before the sets from element 1" in captured.err
    assert captured.out == ""


def test_graph_time_limit_covers_building_the_rows(capsys, monkeypatch):
    # the deadline passes between rows, so the command stops before it has built them all
    real = sepekr.core.disjointness_rows
    built = []

    def slow_rows(masks, deadline=None):
        for row in real(masks, deadline):
            built.append(row)
            time.sleep(0.02)
            yield row

    argv = ["graph", "--kind", "kneser", "--n", "10", "--r", "2"]  # 45 rows, 0.9 s with the sleeps
    sepekr.core._universe.cache_clear()  # so that the rows are built again
    with monkeypatch.context() as patch:
        patch.setattr("sepekr.core.disjointness_rows", slow_rows)
        assert run(argv + ["--limit-seconds", "0.2"]) == 3
    captured = capsys.readouterr()
    assert "time limit exceeded before the row of vertex" in captured.err
    assert 1 < len(built) < 45
    assert captured.out == ""
    assert run(argv + ["--limit-seconds", "30"]) == 0
    assert out_of(capsys) == "kneser n=10 r=2 k=0: 45 vertices, 630 edges\n"


@pytest.mark.parametrize("output", [["--format", "json"], ["--dimacs", "graph.dimacs"]])
def test_graph_time_limit_covers_the_edge_listing(capsys, monkeypatch, tmp_path, output):
    # only the per-row check of the listing is left to fire, after a build that ends past it
    real = sepekr.graph.build_kneser

    def slow_build(*args, **kwargs):
        time.sleep(0.3)
        # the sets, the rows and their edge count, without a deadline, so that their own checks
        # do not fire
        graph = real(*args, **{**kwargs, "deadline": None})
        graph.edge_count(None)
        return graph

    monkeypatch.setattr("sepekr.graph.build_kneser", slow_build)
    monkeypatch.setattr("sepekr.cli.seconds_left", lambda deadline, stage: None)
    monkeypatch.chdir(tmp_path)
    argv = ["graph", "--kind", "kneser", "--n", "7", "--r", "2", *output]
    assert run(argv + ["--limit-seconds", "0.2"]) == 3
    captured = capsys.readouterr()
    assert "time limit exceeded before the edges of vertex 1" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output", [["--format", "json"], ["--dimacs", "graph.dimacs"]])
def test_graph_time_limit_bounds_a_large_edge_listing(capsys, monkeypatch, tmp_path, output):
    # 1.46 million edges: the listing alone took seconds when only its start was checked
    monkeypatch.chdir(tmp_path)
    started = time.monotonic()
    argv = ["graph", "--kind", "kneser", "--n", "60", "--r", "2", *output]
    assert run(argv + ["--limit-seconds", "0.05"]) == 3
    assert time.monotonic() - started < 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("output", [[], ["--output", "graph.json"]])
def test_graph_time_limit_covers_the_serialisation(capsys, monkeypatch, tmp_path, output):
    # the edges are listed in time; the JSON text then runs past the limit
    class SlowEncoder(json.JSONEncoder):
        def iterencode(self, o, _one_shot=False):
            time.sleep(0.4)
            return super().iterencode(o, _one_shot)

    monkeypatch.setattr(json, "JSONEncoder", SlowEncoder)
    monkeypatch.chdir(tmp_path)
    argv = ["graph", "--kind", "kneser", "--n", "7", "--r", "2", "--format", "json", *output]
    assert run(argv + ["--limit-seconds", "0.2"]) == 3
    captured = capsys.readouterr()
    assert "time limit exceeded before writing the output" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_report_time_limit_covers_the_whole_grid(capsys, monkeypatch, one_process):
    # rows of 0.2 s: a later row's own check fires, and no row's output is written
    real = sepekr.cli._report_row

    def slow_row(*row):
        result = real(*row)
        time.sleep(0.2)
        return result

    monkeypatch.setattr("sepekr.cli._report_row", slow_row)
    assert run(["report", "--grid", "quick", "--limit-seconds", "0.3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "time limit exceeded before row" in captured.err


_SMALL_RUNS = {
    "enumerate": ["enumerate", "--n", "7", "--r", "2", "--k", "1"],
    "max-family": ["max-family", "--n", "7", "--r", "2", "--k", "1"],
    "classes": ["classes", "--n", "7", "--r", "2", "--k", "1"],
    "lemmas": ["lemmas", "--n", "7", "--r", "2", "--k", "1"],
    "weighted": ["weighted", "--n", "8", "--r", "2", "--k", "1"],
    "graph": ["graph", "--kind", "schrijver", "--n", "7", "--r", "2"],
    "report": ["report", "--grid", "quick"],
}


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_every_command_reads_its_deadline_before_writing(capsys, monkeypatch, command):
    # only the check before the write fires, and only when the command passes a deadline
    real = sepekr.cli.seconds_left

    def expire_at_the_write(deadline, stage):
        if stage == "writing the output" and deadline is not None:
            raise sepekr.ResourceLimitError(f"time limit exceeded before {stage}")
        return real(deadline, stage)

    monkeypatch.setattr("sepekr.cli.seconds_left", expire_at_the_write)
    assert run(_SMALL_RUNS[command] + ["--format", "json", "--limit-seconds", "30"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "before writing the output" in captured.err


def test_bad_threads_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SEPEKR_THREADS", "zero")
    assert run(["enumerate", "--n", "5", "--r", "2", "--k", "1"]) == 2
    monkeypatch.setenv("SEPEKR_THREADS", "0")
    assert run(["enumerate", "--n", "5", "--r", "2", "--k", "1"]) == 2
    capsys.readouterr()


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "out")
    assert run(["enumerate", "--n", "5", "--r", "2", "--k", "1", "--output", missing]) == 2
    assert "error:" in capsys.readouterr().err
    code = run(["graph", "--kind", "schrijver", "--n", "5", "--r", "2", "--dimacs", missing])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["lemmas", "--n", "9", "--r", "2", "--k", "1", "--samples", "-3"],
        ["lemmas", "--n", "9", "--r", "2", "--k", "1", "--samples", "0"],
        ["max-family", "--n", "9", "--r", "2", "--k", "1", "--limit-seconds", "-1"],
        ["report", "--grid", "quick", "--limit-seconds", "0"],
        ["max-family", "--n", "9", "--r", "2", "--k", "1", "--limit-vertices", "-1"],
        ["graph", "--kind", "kneser", "--n", "5", "--r", "2", "--limit-vertices", "0"],
    ],
)
def test_non_positive_counts_and_budgets_are_usage_errors(argv):
    proc = _run([sys.executable, "-m", "sepekr"], argv)
    assert proc.returncode == 2
    assert "must be positive" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_argument_hits_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["enumerate", "--n", "5", "--r", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", sorted(sepekr.cli._HANDLERS))
def test_every_subcommand_takes_the_shared_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    usage, _, options = capsys.readouterr().out.partition("\n\n")
    shared = "[--limit-seconds LIMIT_SECONDS] [--format {json,csv,text}] [--output OUTPUT]"
    assert " ".join(usage.split()).endswith(shared)
    for option in ("--limit-seconds", "--format", "--output"):
        assert option in options


# === installed entry points ===

ROOT = Path(__file__).resolve().parents[1]
ENUMERATE = ["enumerate", "--n", "5", "--r", "2", "--k", "1"]
USAGE_ERROR = ["weighted", "--n", "7", "--r", "2", "--k", "1"]


def _child_env():
    """Environment whose PYTHONPATH starts at the sepekr package this suite imported."""
    env = dict(os.environ)
    package_root = str(Path(sepekr.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + rest if rest else "")
    return env


def _run(command, argv):
    return subprocess.run(command + argv, capture_output=True, text=True, env=_child_env())


def _write_console_script(tmp_path):
    """Write the wrapper an installer makes for ``[project.scripts] sepekr``."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        entry_point = tomllib.load(handle)["project"]["scripts"]["sepekr"]
    module, _, attr = entry_point.partition(":")
    wrapper = tmp_path / "sepekr"
    wrapper.write_text(
        f"import sys\nfrom {module} import {attr.split('.')[0]}\nsys.exit({attr}())\n"
    )
    return wrapper


def test_console_script_and_module_agree(tmp_path):
    scripts = [[sys.executable, str(_write_console_script(tmp_path))]]
    # Found without shutil.which, so a sepekr from another environment on PATH is never run.
    installed = Path(sysconfig.get_path("scripts"), "sepekr")
    if installed.is_file():
        scripts.append([str(installed)])

    via_module = _run([sys.executable, "-m", "sepekr"], ENUMERATE)
    assert via_module.returncode == 0, via_module.stderr
    assert via_module.stdout == "5 2 1 : {1,3} {1,4} {2,4} {2,5} {3,5}\n"
    for script in scripts:
        via_script = _run(script, ENUMERATE)
        assert via_script.returncode == 0, via_script.stderr
        assert via_script.stdout == via_module.stdout
        assert _run(script, USAGE_ERROR).returncode == 2


def test_importing_sepekr_loads_no_dataclasses_or_inspect():
    # the modules the import adds, not all of sys.modules: site hooks may preload modules; the
    # star import loads every module of the package, which the lazy namespace and CLI do not
    code = (
        "import sys; before = set(sys.modules); from sepekr import *; import sepekr.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "sepekr.core" in loaded
    assert [name for name in ("dataclasses", "inspect") if name in loaded] == []


# the package modules a fresh interpreter adds when it reads one name after a bare import
# sepekr (the name's module and the layers under it, as CI's "Internal imports follow the
# layers" allows them), or runs one command after importing sepekr.cli, which loads core and
# search (the modules the command calls beyond those)
SECOND_STEP_LOADS = {
    "sepekr.max_intersecting": ["sepekr.core", "sepekr.search"],
    "sepekr.verify_compression_suite": ["sepekr.compression", "sepekr.core"],
    "sepekr.random_maximal_intersecting": ["sepekr.core", "sepekr.families"],
    "sepekr.build_schrijver": ["sepekr.core", "sepekr.graph", "sepekr.search"],
    "sepekr.verify_weighted_ekr": ["sepekr.core", "sepekr.families", "sepekr.search", "sepekr.weighted"],
    "sepekr.search": ["sepekr.core", "sepekr.search"],
    "report --grid quick": [],
    "max-family --n 7 --r 2 --k 1": [],
    "lemmas --n 7 --r 2 --k 1 --samples 3": ["sepekr.compression", "sepekr.families"],
    "weighted --n 8 --r 2 --k 1": ["sepekr.families", "sepekr.weighted"],
    "graph --kind kneser --n 5 --r 2": ["sepekr.graph"],
}


@pytest.mark.parametrize("step", SECOND_STEP_LOADS)
def test_an_import_then_a_read_or_a_command_loads_only_its_layers(step):
    if step.startswith("sepekr."):
        first, first_loads, second = "import sepekr", ["sepekr"], step
    else:
        first, first_loads = "import sepekr.cli", ["sepekr", "sepekr.cli", "sepekr.core", "sepekr.search"]
        second = f"assert sepekr.cli.run({step.split()!r}) == 0"
    code = (
        f"import sys; before = set(sys.modules); {first}; first = set(sys.modules); {second}; "
        "ours = lambda names: sorted(n for n in names if n.partition('.')[0] == 'sepekr'); "
        "print('loaded', *ours(first - before), '|', *ours(set(sys.modules) - first))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert loaded == ["loaded", *first_loads, "|", *SECOND_STEP_LOADS[step]]


def test_module_exit_code_propagates():
    proc = _run([sys.executable, "-m", "sepekr"], USAGE_ERROR)
    assert proc.returncode == 2

