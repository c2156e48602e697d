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
from driftopt import cli
from driftopt.cli import main
from driftopt.problems import BUILTINS


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def qp_trace(tmp_path, capsys, iters=2000):
    """A qp_6_2 dpp trace and its summary; returns the CSV path."""
    out = tmp_path / "qp.csv"
    code, _, _ = run_cli(capsys, "solve", "--builtin", "qp_6_2",
                         "--iters", iters, "--out", out)
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
], ids=["not-an-object", "unknown-kind", "ragged-array", "A-3d", "A-no-column",
        "P-2x3", "A-1x3-P-2x2", "c-length", "b-length", "xmax-length",
        "alpha-zero", "beta-negative", "alpha-string", "A-3d-alpha-string",
        "A-3d-alpha-zero"])
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


def test_audit_with_non_finite_result_exits_3(tmp_path, capsys):
    # ||Q(0)||^2 / (2 V t) of the objective bound overflows at V = 1e-300
    trace = tmp_path / "t.csv"
    trace.write_text("t,f_avg,f_err,g_1,g_2,g_3,qnorm,lambda_dist,dual_gap\n"
                     "1,0,0,0,0,0,0,0,0\n2,0,0,0,0,0,0,0,0\n")
    summary = tmp_path / "s.json"
    summary.write_text(json.dumps({"problem": "num_6_1", "V": 1e-300,
                                   "q0": [1e10, 1e10, 1e10]}))
    code, out, err = run_cli(capsys, "audit", "--builtin", "num_6_1", "--trace", trace,
                             "--summary", summary)
    assert (code, out, err) == (3, "", "error: non-finite number in the result\n")


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
], ids=lambda v: str(v))
def test_trace_reader_rejects_bad_cells(tmp_path, capsys, command, column, value,
                                        message):
    out = qp_trace(tmp_path, capsys)
    edit_cell(out, 0, column, value)
    if command == "audit":
        argv, prefix = ("audit", "--builtin", "qp_6_2", "--trace", out), "trace/summary"
    else:
        argv, prefix = fit_args(out), "trace"
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout, err) == (2, "", f"error: cannot read {prefix}: trace CSV {message}\n")


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
    # V warning with its source line
    proc = run_module("solve", *argv, "--iters", 100, "--out", tmp_path / "x.csv",
                      python_flags=("-W", "error::RuntimeWarning"))
    lines = proc.stderr.splitlines()
    assert (proc.returncode, lines[-1]) == (3, "error: non-finite value in the sample at t = 1")
    assert "Traceback" not in proc.stderr and len(lines) == (3 if "--V" in argv else 1)


def test_geometric_fit_overflow_exits_3_with_warnings_as_errors(tmp_path):
    # t e(t) overflows at t ~ 1e300 and the regression is rank deficient;
    # neither numpy warning may escape the fit
    path = tmp_path / "huge_t.csv"
    path.write_text("t,f_err\n" + "".join(f"{10 ** 300 * k},{1.0 / k!r}\n"
                                          for k in range(1, 31)))
    proc = run_module(*fit_args(path, model="geometric"), python_flags=("-W", "error"))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: geometric fit produced ratio 1 outside (0, 1)\n"
