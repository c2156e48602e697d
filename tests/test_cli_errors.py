"""The CLI's error path: every failure ends with one stderr line and its
exit code (2 bad usage or input, 3 numerical failure), never with a
traceback or non-JSON on stdout."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftopt
import driftopt.oracles
from driftopt import cli
from driftopt.cli import main
from driftopt.problems import BUILTINS, load_problem
from replay import count_steps


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def qp_trace(tmp_path, capsys, iters=2000, sample="log"):
    """A qp_6_2 dpp trace and its summary; returns the CSV path."""
    out = tmp_path / "qp.csv"
    code, _, _ = run_cli(capsys, "solve", "--builtin", "qp_6_2",
                         "--iters", iters, "--sample", sample, "--out", out)
    assert code == 0
    return out


def edit_cell(path: Path, row: int, column: str, value: str) -> None:
    """Replace one cell of a trace CSV; ``row`` counts data rows from 0."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    cells[header.index(column)] = value
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def rescale_t(path: Path, scale) -> None:
    """Rewrite the ``t`` of data row k (from 1) of a trace CSV as ``scale * k``."""
    for k in range(1, len(path.read_text().splitlines())):
        edit_cell(path, k - 1, "t", repr(scale * k))


def fit_args(path, series="obj", model="power"):
    return ("fit", "--trace", path, "--series", series, "--model", model)


def problem_file(tmp_path, doc) -> Path:
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    return path


# Paths that no other test reaches: exit code and the whole stderr.

def test_q0_of_wrong_count(tmp_path, capsys):
    code, out, err = run_cli(capsys, "solve", "--builtin", "qp_6_2", "--q0", "1,2,3",
                             "--iters", 10, "--out", tmp_path / "x.csv")
    assert (code, out, err) == (2, "", "error: --q0 needs 1 or 2 comma-separated values\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("text,message", [
    ("", "trace CSV is empty"),
    ("t,f_avg,f_err,g_1,qnorm\n", "trace CSV has no data rows"),
], ids=["empty", "header-only"])
def test_trace_csv_without_data(tmp_path, capsys, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, *fit_args(path))
    assert (code, out, err) == (2, "", f"error: cannot read trace: {message}\n")


def test_fit_without_t_column(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("f_err,qnorm\n1.0,0.0\n")
    code, out, err = run_cli(capsys, *fit_args(path))
    assert (code, out, err) == (2, "", "error: trace CSV lacks a 't' column\n")


@pytest.mark.parametrize("series, column", [("obj", "f_err"), ("constraint", "g_1")])
def test_fit_with_blank_t_column(tmp_path, capsys, series, column):
    # a column blank in its first data row is read as absent
    path = tmp_path / "t.csv"
    path.write_text(f"t,{column}\n" + "".join(f",{1.0 / k}\n" for k in range(1, 13)))
    code, out, err = run_cli(capsys, *fit_args(path, series=series))
    assert (code, out, err) == (2, "", "error: trace CSV lacks a 't' column\n")


def test_fit_constraint_without_g_columns(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("t,f_err,qnorm\n1,1.0,0.0\n")
    code, out, err = run_cli(capsys, *fit_args(path, series="constraint"))
    assert (code, out, err) == (2, "", "error: trace CSV lacks g_k columns\n")


def test_fit_with_too_few_positive_samples(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("t,f_err\n" + "".join(f"{t},{1.0 / t}\n" for t in range(1, 10)))
    code, out, err = run_cli(capsys, *fit_args(path))
    assert (code, out, err) == (
        3, "", "error: need at least 10 positive samples in the fit window\n")


def test_audit_trace_without_required_columns(tmp_path, capsys):
    out = qp_trace(tmp_path, capsys, iters=200)
    lines = [",".join(line.split(",")[:-3]) for line in out.read_text().splitlines()]
    out.write_text("\n".join(lines) + "\n")  # drops qnorm, lambda_dist, dual_gap
    code, stdout, err = run_cli(capsys, "audit", "--builtin", "qp_6_2", "--trace", out)
    assert (code, stdout, err) == (2, "", "error: trace CSV lacks required columns\n")


@pytest.mark.parametrize("last", ["num_6_1", "qp_6_2"], ids=["cached", "parsed"])
def test_audit_trace_with_more_constraints_than_its_problem(tmp_path, capsys, last):
    # num_6_1's trace (g_1..g_3) with qp_6_2's summary, audited as qp_6_2
    # (m = 2): its first two g columns are not read as qp_6_2's
    for tag in sorted({"num_6_1", "qp_6_2"} - {last}) + [last]:
        assert run_cli(capsys, "solve", "--builtin", tag, "--iters", 500,
                       "--out", tmp_path / f"{tag}.csv")[0] == 0
    code, stdout, err = run_cli(capsys, "audit", "--builtin", "qp_6_2",
                                "--trace", tmp_path / "num_6_1.csv",
                                "--summary", tmp_path / "qp_6_2.csv.summary.json")
    assert (code, stdout, err) == (
        2, "", "error: trace CSV has a column 'g_3', but the problem has m = 2\n")


# ||A||_F^2 = 1e400 overflows, though A is finite
BIG_A = {"kind": "qp", "P": [[1.0]], "c": [0.0], "A": [[1e200]], "b": [1.0]}


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "problem file must be a JSON object with a 'kind' field"),
    ({**BUILTINS["qp_6_2"], "kind": "lp"}, "unknown problem kind 'lp'"),
    ({**BUILTINS["qp_6_2"], "A": [[1.0, 1.0], [0.0]]},
     "problem field 'A' must be an array of numbers"),
    # shapes: A, b and c are checked first, for both kinds, then P or xmax
    ({**BUILTINS["qp_6_2"], "A": [[[1.0, 1.0]], [[0.0, 1.0]]]}, "A must be a matrix"),
    ({**BUILTINS["num_6_1"], "A": [[]], "b": [1.0], "c": [], "xmax": []},
     "A needs at least one column"),
    ({**BUILTINS["qp_6_2"], "P": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
     "P must be n x n, for A m x n"),
    ({**BUILTINS["qp_6_2"], "A": [[1.0, 1.0, 1.0]], "b": [1.0]},
     "c has length 2, expected 3"),
    ({**BUILTINS["num_6_1"], "c": [1.0, 2.0]}, "c has length 2, expected 3"),
    ({**BUILTINS["qp_6_2"], "b": [1.0]}, "b has length 1, expected 2"),
    ({**BUILTINS["num_6_1"], "xmax": [11.0]}, "xmax has length 1, expected 3"),
    # the moduli: read before the instance is built, checked after it
    ({**BUILTINS["num_6_1"], "alpha": 0}, "alpha and beta must be positive"),
    ({**BUILTINS["qp_6_2"], "beta": -1}, "alpha and beta must be positive"),
    ({**BUILTINS["qp_6_2"], "alpha": "x"}, "problem field 'alpha' must be a finite number"),
    ({**BUILTINS["qp_6_2"], "A": [[[1.0, 1.0]], [[0.0, 1.0]]], "alpha": "x"},
     "problem field 'alpha' must be a finite number"),
    ({**BUILTINS["qp_6_2"], "A": [[[1.0, 1.0]], [[0.0, 1.0]]], "alpha": 0},
     "A must be a matrix"),
    (BIG_A, "A is too large: ||A||_F^2 overflows"),
], ids=["not-an-object", "unknown-kind", "ragged-array", "A-3d", "A-no-column",
        "P-2x3", "A-1x3-P-2x2", "c-length", "b-length", "xmax-length",
        "alpha-zero", "beta-negative", "alpha-string", "A-3d-alpha-string",
        "A-3d-alpha-zero", "A-overflows"])
def test_bad_problem_file(tmp_path, capsys, doc, message):
    code, out, err = run_cli(capsys, "kkt", "--problem", problem_file(tmp_path, doc))
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Failures that once ended in a traceback or printed non-JSON.

@pytest.mark.parametrize("command", ["solve", "kkt", "audit"])
def test_ill_conditioned_P_exits_2_at_load(tmp_path, capsys, command):
    # cond(2VP) = cond(2P) = 1e13 at every V: the instance refuses the file
    # before any command runs, and nothing is written
    doc = {**BUILTINS["qp_6_2"], "P": [[1.0, 0.0], [0.0, 1e-13]]}
    path = problem_file(tmp_path, doc)
    out = tmp_path / "t.csv"
    argv = {"solve": ("--iters", 100, "--out", out), "kkt": (),
            "audit": ("--trace", out, "--gamma", 1)}[command]
    code, stdout, err = run_cli(capsys, command, "--problem", path, *argv)
    assert (code, stdout, err) == (2, "", "error: P is ill-conditioned: cond(2P) is above 1e12\n")
    assert sorted(tmp_path.iterdir()) == [path]


def test_V_at_which_2VP_overflows_exits_2(tmp_path, capsys):
    # 2VP overflows, so no oracle exists at V: refused before the first
    # step, with nothing written
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(capsys, "solve", "--builtin", "qp_6_2", "--V", "1e308",
                                "--iters", 100, "--out", out)
    assert (code, stdout, err) == (
        2, "", "error: V=1e+308 is too large for this program: 2VP overflows\n")
    assert list(tmp_path.iterdir()) == []


# an --out that cannot be opened for writing: a directory, or a path in a
# missing directory; the message is the OSError's, as open(path, "wb") gave it
@pytest.mark.parametrize("where,message", [
    ("dir", "[Errno 21] Is a directory"),
    ("missing/t.csv", "[Errno 2] No such file or directory"),
])
def test_out_that_cannot_be_opened_exits_2(tmp_path, capsys, where, message):
    (tmp_path / "dir").mkdir()
    out = tmp_path / where
    code, stdout, err = run_cli(capsys, "solve", "--builtin", "qp_6_2", "--iters", 100,
                                "--out", out)
    assert (code, stdout, err) == (2, "", f"error: {message}: '{out}'\n")
    assert sorted(tmp_path.iterdir()) == [tmp_path / "dir"]
    assert list((tmp_path / "dir").iterdir()) == []


@pytest.mark.parametrize("command", ["kkt", "audit"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    # past the parser's recursion limit: an input error, not a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    if command == "kkt":
        argv, message = ("--problem", deep), "problem file is nested too deeply\n"
    else:
        trace = qp_trace(tmp_path, capsys, iters=50)
        argv = ("--builtin", "qp_6_2", "--trace", trace, "--summary", deep)
        message = "cannot read trace/summary: maximum recursion depth exceeded"
    code, out, err = run_cli(capsys, command, *argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith(f"error: {message}"), err


def test_audit_at_large_V_passes(tmp_path, capsys):
    # V^2 overflows above V ~ 1.3e154, but the queue bound B ~ 2 V ||lam*||
    # and the dual-gap constant theta are representable
    out = tmp_path / "big.csv"
    code, _, _ = run_cli(capsys, "solve", "--builtin", "num_6_1", "--V", "1e160",
                         "--iters", 200, "--out", out)
    assert code == 0
    code, stdout, err = run_cli(capsys, "audit", "--builtin", "num_6_1", "--trace", out)
    assert (code, err) == (0, "")
    report = json.loads(stdout)
    assert len(report) == 6
    assert all(entry["applicable"] and entry["pass"] for entry in report)


def test_audit_at_V_near_the_float_limit(tmp_path, capsys):
    # at V = 1e307 the queue bound B ~ 2 V ||lam*|| and the dual-gap
    # constant theta overflow: the bounds built on them hold for every
    # finite trace but cannot be checked in floats, so they report not
    # applicable, and the other three pass
    out = tmp_path / "huge.csv"
    code, _, _ = run_cli(capsys, "solve", "--builtin", "qp_6_2", "--V", "1e307",
                         "--iters", 2000, "--out", out)
    assert code == 0
    code, stdout, err = run_cli(capsys, "audit", "--builtin", "qp_6_2", "--trace", out)
    assert (code, err) == (0, "")
    report = {entry["bound"]: entry for entry in json.loads(stdout)}
    skipped = {"constraint_bound", "queue_bound", "dual_gap_bound"}
    assert {name for name, entry in report.items() if not entry["applicable"]} == skipped
    for name in skipped:
        assert report[name]["pass"] is None and report[name]["worst_margin"] is None
    assert len(report) == 6
    assert all(entry["pass"] for entry in report.values() if entry["applicable"])


def test_audit_whose_queue_norm_overflows(tmp_path, capsys):
    # from Q(0) = (1e308, 1e308), ||Q(0)||^2 overflows, and with it the
    # objective bound's rhs f* + ||Q(0)||^2 / (2 V t) and the constants B
    # and theta: the four bounds built on them report not applicable, in
    # process and in a fresh process, and the two monotone ones pass
    out = qp_trace(tmp_path, capsys, iters=200)
    summary = Path(f"{out}.summary.json")
    summary.write_text(json.dumps({**json.loads(summary.read_text()), "q0": [1e308, 1e308]}))
    code, stdout, err = run_cli(capsys, "audit", "--builtin", "qp_6_2", "--trace", out)
    proc = run_module("audit", "--builtin", "qp_6_2", "--trace", out)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, err)
    assert (code, err) == (0, "")
    report = {entry["bound"]: entry for entry in json.loads(stdout)}
    skipped = {"objective_bound", "constraint_bound", "queue_bound", "dual_gap_bound"}
    assert {name for name, entry in report.items() if not entry["applicable"]} == skipped
    for name in skipped:
        assert report[name]["pass"] is None and report[name]["worst_margin"] is None
    assert len(report) == 6
    assert all(entry["pass"] for entry in report.values() if entry["applicable"])


def far_window_trace(tmp_path):
    # e(t) = 1e-3 exp(-0.05 (t - 1e5)) on t = 1e5 .. 1e5 + 49
    path = tmp_path / "geo.csv"
    ts = np.arange(100_000, 100_050)
    errors = 1e-3 * np.exp(-0.05 * (ts - 100_000))
    path.write_text("t,f_err\n" + "".join(f"{t},{e!r}\n" for t, e in
                                          zip(ts.tolist(), errors.tolist())))
    return path


def test_power_fit_far_from_t0(tmp_path, capsys):
    # the power C is anchored at the window start too: it is the model's
    # e(t_lo), where its value at t = 1 would overflow
    path = far_window_trace(tmp_path)
    code, out, err = run_cli(capsys, *fit_args(path, model="power"))
    assert (code, err) == (0, "")
    fit = json.loads(out)
    assert (fit["t_lo"], fit["t_hi"]) == (100_025, 100_049)
    assert fit["C"] == pytest.approx(1e-3 * np.exp(-0.05 * 25), rel=1e-4)
    assert fit["quality"] > 0.999


def audit_of_two_rows(tmp_path, capsys, gaps, V, q0):
    """``audit`` in process and in a fresh process of a two-row num_6_1
    trace, zero but for its ``dual_gap`` column, under a summary of V and
    q0; returns the in-process exit code, stdout and stderr."""
    trace = tmp_path / "t.csv"
    trace.write_text("t,f_avg,f_err,g_1,g_2,g_3,qnorm,lambda_dist,dual_gap\n"
                     + "".join(f"{t},0,0,0,0,0,0,0,{gap}\n" for t, gap in enumerate(gaps, 1)))
    summary = tmp_path / "s.json"
    summary.write_text(json.dumps({"problem": "num_6_1", "V": V, "q0": q0}))
    argv = ("audit", "--builtin", "num_6_1", "--trace", trace, "--summary", summary)
    code, out, err = run_cli(capsys, *argv)
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    return code, out, err


def test_audit_with_non_finite_result_exits_3(tmp_path, capsys):
    # at V = 422 the dual value's step between the samples, a dual_gap
    # going from -1e308 to 1e308, overflows its margin
    result = audit_of_two_rows(tmp_path, capsys, ("-1e308", "1e308"), 422.0, [0, 0, 0])
    assert result == (3, "", "error: non-finite number in the result\n")


def test_audit_whose_objective_rhs_overflows_at_every_sample(tmp_path, capsys):
    # ||Q(0)||^2 = 3e20 is finite, but f* + ||Q(0)||^2 / (2 V t) overflows
    # at both samples at V = 1e-300, so the objective bound, like the dual
    # bounds below V >= gamma / 2, is not applicable; the constraint and
    # queue bounds pass
    code, out, err = audit_of_two_rows(tmp_path, capsys, (0, 0), 1e-300, [1e10, 1e10, 1e10])
    assert (code, err) == (0, "")
    report = {entry["bound"]: entry for entry in json.loads(out)}
    assert [name for name, entry in report.items() if entry["applicable"]] == [
        "constraint_bound", "queue_bound"]
    assert all(report[name]["pass"] for name in ("constraint_bound", "queue_bound"))


def test_geometric_fit_far_from_t0(tmp_path, capsys):
    # the geometric C is anchored at the window start: t_lo e(t_lo) = 100
    path = far_window_trace(tmp_path)
    code, out, err = run_cli(capsys, *fit_args(path, model="geometric"),
                             "--t-lo", "100000", "--t-hi", "100049")
    assert (code, err) == (0, "")
    fit = json.loads(out)
    assert fit["C"] == pytest.approx(100.0, rel=1e-6)
    assert fit["r"] == pytest.approx(np.exp(-0.05) * (1 + 1e-5), rel=1e-6)
    assert fit["r"] == pytest.approx(0.9512, abs=1e-4)
    assert (fit["t_lo"], fit["t_hi"]) == (100_000, 100_049)
    assert fit["quality"] > 0.999


# The trace reader rejects cells that parse but cannot be a trace.

@pytest.mark.parametrize("command,column,value,message", [
    ("audit", "t", "0", "column 't' must hold integers >= 1"),
    ("audit", "t", "0.5", "column 't' must hold integers >= 1"),
    ("audit", "f_avg", "nan", "column 'f_avg' holds a non-finite number"),
    ("fit", "f_err", "nan", "column 'f_err' holds a non-finite number"),
    ("fit", "f_err", "inf", "column 'f_err' holds a non-finite number"),
    ("audit", "t", "2", "column 't' must be strictly increasing"),  # repeats row 1
    ("fit", "t", "2", "column 't' must be strictly increasing"),
    # a number in place of a cell is a scale: t becomes scale * k in row k,
    # strictly increasing integers but past 2**53, where a double skips some
    ("audit", "t", 2**62, "column 't' must be at most 2**53"),
    ("fit", "t", 2**62, "column 't' must be at most 2**53"),
    ("audit", "t", 1e300, "column 't' must be at most 2**53"),
    ("fit", "t", 1e300, "column 't' must be at most 2**53"),
], ids=lambda v: str(v))
def test_trace_reader_rejects_bad_cells(tmp_path, capsys, command, column, value,
                                        message):
    if isinstance(value, str):
        out = qp_trace(tmp_path, capsys)
        edit_cell(out, 0, column, value)
    else:
        out = qp_trace(tmp_path, capsys, iters=30, sample="linear")
        rescale_t(out, value)
    if command == "audit":
        argv, prefix = ("audit", "--builtin", "qp_6_2", "--trace", out), "trace/summary"
    else:
        argv, prefix = fit_args(out), "trace"
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout, err) == (2, "", f"error: cannot read {prefix}: trace CSV {message}\n")


@pytest.mark.parametrize("command", ["audit", "fit"])
@pytest.mark.parametrize("column,value", [("f_avg", "-1000"), ("qnorm", "0")])
def test_trace_reader_rejects_a_repeated_column(tmp_path, capsys, command, column, value):
    # a second column of the name, read last, would replace the first:
    # -1000 for f_avg moves the objective margin from -7.67 to -1008.0, and
    # 0 for qnorm the queue margin from -159.95 to -221.98
    out = qp_trace(tmp_path, capsys, iters=50)
    lines = out.read_text().splitlines()
    out.write_text("".join(f"{line},{column if i == 0 else value}\n"
                           for i, line in enumerate(lines)))
    if command == "audit":
        argv, prefix = ("audit", "--builtin", "qp_6_2", "--trace", out), "trace/summary"
    else:
        argv, prefix = fit_args(out), "trace"
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout, err) == (
        2, "", f"error: cannot read {prefix}: trace CSV repeats the column '{column}'\n")


# Structure: main alone decides the exit code and writes to stderr.

def test_only_main_writes_stderr_or_returns_failure_codes():
    tree = ast.parse(Path(cli.__file__).read_text())
    failure = {"EXIT_USAGE", "EXIT_NUMERICAL", 2, 3}
    offenders = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "main":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr == "stderr":
                offenders.add(f"{fn.name} writes to stderr")
            if isinstance(node, ast.Return) and node.value is not None:
                value = node.value
                key = (value.id if isinstance(value, ast.Name) else
                       value.value if isinstance(value, ast.Constant) else None)
                if key in failure:
                    offenders.add(f"{fn.name} returns {key}")
    assert sorted(offenders) == []


def run_module(*argv, python_flags=()) -> subprocess.CompletedProcess:
    """``python -m driftopt.cli argv`` in a fresh process."""
    paths = [str(Path(driftopt.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *python_flags, "-m", "driftopt.cli",
                           *map(str, argv)], env=env, capture_output=True, text=True)


def test_module_entry_point_exit_codes(tmp_path, capsys):
    out = qp_trace(tmp_path, capsys, iters=200)

    def status(*argv):
        return run_module(*argv).returncode

    assert status("info") == 0
    edit_cell(out, 5, "f_avg", "1e6")  # breaks the objective bound
    assert status("audit", "--builtin", "qp_6_2", "--trace", out) == 1
    assert status("solve", "--builtin", "qp_6_2") == 2
    few = tmp_path / "few.csv"
    few.write_text("t,f_err\n1,1.0\n")
    assert status(*fit_args(few)) == 3


@pytest.mark.parametrize("argv", [
    ("--builtin", "num_6_1", "--q0", "1e308"),
    ("--builtin", "qp_6_2", "--q0", "1e300"),
    ("--builtin", "qp_6_2", "--V", "1e-300"),
], ids=" ".join)
def test_overflow_exits_3_with_warnings_as_errors(tmp_path, argv):
    # numpy's floating-point warnings stay inside the run, and the sample
    # check reports the failure in one line; before it comes at most the
    # V warning, in one line too
    proc = run_module("solve", *argv, "--iters", 100, "--out", tmp_path / "x.csv",
                      python_flags=("-W", "error::RuntimeWarning"))
    warning = ["warning: V=1e-300 is below the guarantee threshold m*beta^2/alpha=11.7647; "
               "convergence bounds may not apply"]
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ((warning if "--V" in argv else [])
                                        + ["error: non-finite value in the sample at t = 1"])


def test_geometric_fit_overflow_exits_3_with_warnings_as_errors(tmp_path):
    # t e(t) overflows at t ~ 2**47 (a t the reader accepts) and e ~ 1e300;
    # no numpy warning may escape the fit
    path = tmp_path / "huge_te.csv"
    path.write_text("t,f_err\n" + "".join(f"{2**47 * k},{1e300 / k!r}\n"
                                          for k in range(1, 31)))
    proc = run_module(*fit_args(path, model="geometric"), python_flags=("-W", "error"))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: geometric fit produced ratio nan outside (0, 1)\n"


# Past 2**53, np.log10 of a log sample's iters fails on the int (an
# OverflowError at 2**63, a TypeError from 2**64), and a linear sample would
# be an array of 2**53 indices (a MemoryError): each is refused before.
PAST_2_53 = [(2**53 + 1, "log"), (2**63, "log"), (2**64, "log"), (10**20, "log"),
             (2**53 + 1, "linear")]


def test_solve_past_2_53_iterations_exits_2_before_the_first_step(tmp_path, capsys):
    # its last sample's t would pass 2**53, which no trace holds: refused
    # before the sample is built, and nothing is written
    for iters, sample in PAST_2_53:
        code, out, err = run_cli(capsys, "solve", "--builtin", "qp_6_2", "--iters", iters,
                                 "--sample", sample, "--out", tmp_path / "x.csv")
        assert (code, out, err) == (2, "", "error: iters must be at most 2**53\n"), iters
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("iters,sample", PAST_2_53, ids=str)
def test_solve_past_2_53_iterations_exits_2_in_a_fresh_process(tmp_path, iters, sample):
    proc = run_module("solve", "--builtin", "qp_6_2", "--iters", iters, "--sample", sample,
                      "--out", tmp_path / "x.csv", python_flags=("-W", "error"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: iters must be at most 2**53\n"
    assert list(tmp_path.iterdir()) == []


# At 2**53 iterations, the most a trace holds, a linear schedule is 64 PiB of
# int64 indices: numpy refuses the allocation at once with a MemoryError.
TOO_LARGE = ("solve", "--builtin", "qp_6_2", "--iters", 2**53, "--sample", "linear")


def one_allocation_error(err: str) -> bool:
    return err.startswith("error: Unable to allocate 64.0 PiB ") and err.count("\n") == 1


def test_solve_with_a_schedule_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch):
    stepped = count_steps(monkeypatch)
    code, out, err = run_cli(capsys, *TOO_LARGE, "--out", tmp_path / "x.csv")
    assert (code, out, stepped) == (2, "", [])
    assert one_allocation_error(err), err
    assert list(tmp_path.iterdir()) == []


def test_solve_with_a_schedule_too_large_for_memory_exits_2_in_a_fresh_process(tmp_path):
    proc = run_module(*TOO_LARGE, "--out", tmp_path / "x.csv", python_flags=("-W", "error"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert one_allocation_error(proc.stderr), proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scale", [2**62, 1e300], ids=str)
@pytest.mark.parametrize("command", ["audit", "fit"])
def test_t_past_2_53_exits_2_with_warnings_as_errors(tmp_path, capsys, command, scale):
    # the reader refuses the column before any cast of it to int64 can warn
    out = qp_trace(tmp_path, capsys, iters=30, sample="linear")
    rescale_t(out, scale)
    if command == "audit":
        argv, prefix = ("audit", "--builtin", "qp_6_2", "--trace", out), "trace/summary"
    else:
        argv, prefix = fit_args(out), "trace"
    proc = run_module(*argv, python_flags=("-W", "error"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: cannot read {prefix}: "
                           "trace CSV column 't' must be at most 2**53\n")


def test_V_below_the_threshold_exits_2_with_warnings_as_errors(tmp_path):
    # -W error raises the guarantee-threshold warning: one line, and
    # nothing written
    proc = run_module("solve", "--builtin", "num_6_1", "--V", "1e-300", "--iters", 100,
                      "--out", tmp_path / "x.csv", python_flags=("-W", "error"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: V=1e-300 is below the guarantee threshold "
                           "m*beta^2/alpha=544.5; convergence bounds may not apply\n")
    assert list(tmp_path.iterdir()) == []


def test_P_too_large_for_floats_exits_2_with_warnings_as_errors(tmp_path):
    # 2P overflows: one line, no numpy warning and no traceback
    doc = {**BUILTINS["qp_6_2"], "P": [[1e308, 0.0], [0.0, 1e308]]}
    proc = run_module("kkt", "--problem", problem_file(tmp_path, doc),
                      python_flags=("-W", "error"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: P is too large: 2P or its eigenvalues overflow\n"


@pytest.mark.parametrize("command", ["solve", "kkt"])
def test_A_too_large_for_floats_exits_2_with_warnings_as_errors(tmp_path, command):
    # refused at load: one line, no numpy warning and no traceback, and
    # nothing written
    path = problem_file(tmp_path, BIG_A)
    argv = ("--iters", 100, "--out", tmp_path / "t.csv") if command == "solve" else ()
    proc = run_module(command, "--problem", path, *argv, python_flags=("-W", "error"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: A is too large: ||A||_F^2 overflows\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["kkt", "solve", "audit"])
def test_alpha_that_overflows_exits_2_at_load(tmp_path, capsys, command):
    # xmax^2 underflows to 0, so alpha = c / xmax^2 is inf and the default
    # V = m beta^2 / alpha is 0: the file is refused at load, in process
    # and in a fresh process with warnings as errors, and nothing is written
    path = problem_file(tmp_path, {"kind": "num", "A": [[1]], "b": [1e-320], "c": [0.5],
                                   "xmax": [1e-300]})
    out = tmp_path / "t.csv"
    argv = {"kkt": (), "solve": ("--iters", 100, "--out", out),
            "audit": ("--trace", out)}[command]
    line = "error: alpha must be finite\n"
    assert run_cli(capsys, command, "--problem", path, *argv) == (2, "", line)
    proc = run_module(command, "--problem", path, *argv, python_flags=("-W", "error"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line)
    assert list(tmp_path.iterdir()) == [path]


# Extreme V on num_6_1: the floor underflows to 0 at 5e-324, where the NUM
# oracle steps with numpy; c V overflows at 1e308, where its generated step
# holds inf, and at 1e-300 and 1e-100 it generates its step too.  Each
# fails at the sample the numpy row update fails at, with its line and its
# partial CSV (one row at 1e-100, none at the others).
EXTREME_V = [(("--V", "1e308"), 1), (("--V", "5e-324"), 1), (("--V", "1e-300"), 1),
             (("--algorithm", "dpp-shifted", "--V", "1e-100", "--sample", "linear"), 2)]


def solve_three_ways(tmp_path, capsys, monkeypatch, bound, *solve):
    """``solve`` (argv up to ``--out``) run three ways: in process with the
    size bound named ``bound`` at 0, so that numpy steps; in process as it
    is; and in a fresh process where every warning is an error but the
    documented one that V is below the guarantee threshold.  Returns each
    run's exit code, stdout and last stderr line, and each run's CSV bytes,
    None where it wrote none."""
    runs = []
    with monkeypatch.context() as patch:
        patch.setattr(driftopt.oracles, bound, 0)
        code, out, err = run_cli(capsys, *solve, tmp_path / "numpy.csv")
    runs.append((code, out, err.splitlines()[-1:]))
    code, out, err = run_cli(capsys, *solve, tmp_path / "in_process.csv")
    runs.append((code, out, err.splitlines()[-1:]))
    proc = run_module(*solve, tmp_path / "fresh.csv",
                      python_flags=("-W", "error", "-W", "default::UserWarning"))
    assert "Traceback" not in proc.stderr
    runs.append((proc.returncode, proc.stdout, proc.stderr.splitlines()[-1:]))
    paths = [tmp_path / f"{name}.csv" for name in ("numpy", "in_process", "fresh")]
    written = [path.read_bytes() if path.exists() else None for path in paths]
    return runs, written


@pytest.mark.parametrize("argv,t", EXTREME_V, ids=[" ".join(a) for a, _ in EXTREME_V])
def test_extreme_V_fails_as_the_numpy_row_update_does(tmp_path, capsys, monkeypatch,
                                                      argv, t):
    solve = ("solve", "--builtin", "num_6_1", *argv, "--iters", 100, "--out")
    line = f"error: non-finite value in the sample at t = {t}"
    runs, written = solve_three_ways(tmp_path, capsys, monkeypatch, "_MAX_GENERATED_ONES",
                                     *solve)
    assert runs == [(3, "", [line])] * 3
    assert written == [written[0]] * 3
    assert (written[0] is not None) == (t == 2)
    if t == 2:
        assert written[0].count(b"\r\n") == 2  # the header and the sample at t = 1


# Extreme V on qp_6_2: M and c0 are NaN at 5e-324, where the QP oracle's
# generated step holds nan, and M is about 1e300 at 1e-300; both fail at
# t = 1, with no CSV.  At 1e307 the run ends, and at
# 1.7e308 2VP overflows and no oracle is built.
QP_EXTREME_V = [("5e-324", 3, "error: non-finite value in the sample at t = 1"),
                ("1e-300", 3, "error: non-finite value in the sample at t = 1"),
                ("1e307", 0, None),
                ("1.7e308", 2, "error: V=1.7e+308 is too large for this program: 2VP overflows")]


@pytest.mark.parametrize("V,code,line", QP_EXTREME_V, ids=[v for v, _, _ in QP_EXTREME_V])
def test_qp_extreme_V_ends_as_the_numpy_row_update_does(tmp_path, capsys, monkeypatch,
                                                        V, code, line):
    solve = ("solve", "--builtin", "qp_6_2", "--V", V, "--iters", 100, "--out")
    runs, written = solve_three_ways(tmp_path, capsys, monkeypatch, "_MAX_GENERATED_ENTRIES",
                                     *solve)
    assert runs == [runs[0]] * 3
    assert runs[0][0] == code and runs[0][2] == ([line] if line else [])
    assert (runs[0][1] == "") == (code != 0)  # a summary only on success
    assert written == [written[0]] * 3
    assert (written[0] is not None) == (code == 0)


# Files whose magnitudes overflow numpy: in the KKT enumeration's
# residual norms (the QP, whose one candidate has a NaN f*) and in alpha's
# c / xmax^2 (the NUM).  Each command's last stderr line, with its exit code.
NO_KKT = "no active subset produced a KKT point"
OVERFLOWING = [
    ({"kind": "qp", "P": [[1]], "A": [[1e-300], [2], [1]], "b": [2, 0.5, 1e+200],
      "c": [1e+200], "alpha": 2},
     {"kkt": (3, f"error: ground-truth solve failed: {NO_KKT}"),
      "solve": (3, "error: non-finite value in the sample at t = 1")}),
    ({"kind": "num", "A": [[1], [1], [1]], "b": [1e-320, 0.5, 1e-320], "c": [0.5],
      "xmax": [1e+200], "beta": 1e-200},
     {"kkt": (2, "error: alpha and beta must be positive"),
      "solve": (2, "error: alpha and beta must be positive")}),
]


@pytest.mark.parametrize("command", ["kkt", "solve"])
@pytest.mark.parametrize("doc,ends", OVERFLOWING, ids=["qp", "num"])
def test_overflowing_file_exits_alike_with_warnings_as_errors(tmp_path, command, doc, ends):
    # numpy's overflow is neither a warning line nor, under -W error, a
    # traceback with exit 1: the command ends as it does without the flags
    path = problem_file(tmp_path, doc)
    argv = ("--iters", 100, "--out", tmp_path / "t.csv") if command == "solve" else ()
    code, line = ends[command]
    for flags in ((), ("-W", "error", "-W", "default::UserWarning")):
        proc = run_module(command, "--problem", path, *argv, python_flags=flags)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", line + "\n"), flags


def test_kkt_candidate_whose_objective_is_nan_is_refused(tmp_path, capsys):
    # x* = (-0.25, -2.5e199) passes the certificate, but x'Px overflows and
    # f* is NaN: the file has no reference, where it once had a NaN one
    path = problem_file(tmp_path, {"kind": "qp", "P": [[2, 0], [0, 2]],
                                   "A": [[2, 0], [0, 3], [1e-300, 2]],
                                   "b": [1e-320, 1e+200, 1e+200], "c": [1, 1e+200]})
    bundle = load_problem(path)
    assert bundle.reference is None and bundle.reference_error == NO_KKT
    assert run_cli(capsys, "kkt", "--problem", path) == (
        3, "", f"error: ground-truth solve failed: {NO_KKT}\n")
