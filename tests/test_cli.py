import argparse
import builtins
import contextlib
import copy
import csv
import functools
import io
import json
import os
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from driftopt import IterateTrace, builtin, choose_V, load_problem, run
from driftopt import cli
from driftopt.cli import _read_trace_csv, main
from driftopt.problems import BUILTINS
from driftopt.solver import _BLOCK
from replay import count_generations

# `info` and `kkt` output for each builtin, recorded before the builtins
# became problem documents.
PINNED = json.loads(Path(__file__).with_name("builtin_outputs.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def solve_qp(tmp_path, capsys, iters=2000, extra=()):
    out = tmp_path / "qp.csv"
    code, stdout, _ = run_cli(
        capsys, "solve", "--builtin", "qp_6_2", "--algorithm", "dpp",
        "--iters", str(iters), "--out", str(out), *extra)
    assert code == 0
    return out, json.loads(stdout)


def test_solve_writes_csv_and_summary(tmp_path, capsys):
    out, summary = solve_qp(tmp_path, capsys)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "f_avg", "f_err", "g_1", "g_2", "qnorm",
                       "lambda_dist", "dual_gap"]
    assert int(rows[1][0]) == 1
    assert int(rows[-1][0]) == 2000
    # 17-significant-digit numbers round-trip exactly
    v = float(rows[-1][1])
    assert f"{v:.17g}" == rows[-1][1]
    assert summary["final"]["t"] == 2000
    assert (out.parent / (out.name + ".summary.json")).exists()


def test_solve_is_deterministic(tmp_path, capsys):
    a, _ = solve_qp(tmp_path, capsys)
    first = a.read_bytes()
    b, _ = solve_qp(tmp_path, capsys)
    assert b.read_bytes() == first


def test_solve_rejects_zero_iters(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", "--builtin", "qp_6_2",
                           "--iters", "0", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "iters" in err


def test_solve_rejects_bad_flags(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for sample in ("bogus", "linearfoo", "linear:", "linear:0", "log:3"):
        code, _, err = run_cli(capsys, "solve", "--builtin", "qp_6_2",
                               "--iters", "10", "--sample", sample, "--out", str(out))
        assert code == 2, sample
        assert repr(sample) in err
        assert not out.exists(), sample
    code, _, _ = run_cli(capsys, "solve", "--builtin", "nope",
                         "--iters", "10", "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_solve_requires_exactly_one_problem_source(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "solve", "--iters", "10",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_solve_q0_broadcast(tmp_path, capsys):
    out = tmp_path / "q.csv"
    code, stdout, _ = run_cli(
        capsys, "solve", "--builtin", "qp_6_2", "--iters", "50",
        "--q0", "10", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["q0"] == [10.0, 10.0]


def test_solve_linear_sampling(tmp_path, capsys):
    out = tmp_path / "lin.csv"
    code, _, _ = run_cli(capsys, "solve", "--builtin", "qp_6_2",
                         "--iters", "20", "--sample", "linear:5",
                         "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        ts = [int(r["t"]) for r in csv.DictReader(fh)]
    assert ts == [5, 10, 15, 20]


def synthetic_csv(tmp_path):
    path = tmp_path / "synthetic.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "f_avg", "f_err", "g_1", "qnorm"])
        for t in np.unique(np.round(np.logspace(0, 4, 100))).astype(int):
            w.writerow([t, 0.0, 1.0 / t, 0.5 / t, 0.0])
    return path


def test_fit_on_synthetic_csv(tmp_path, capsys):
    path = synthetic_csv(tmp_path)
    code, stdout, _ = run_cli(capsys, "fit", "--trace", str(path),
                              "--series", "obj", "--model", "power")
    assert code == 0
    fit = json.loads(stdout)
    assert abs(fit["p"] - 1.0) < 1e-6
    code, stdout, _ = run_cli(capsys, "fit", "--trace", str(path),
                              "--series", "constraint", "--model", "power")
    assert code == 0
    assert abs(json.loads(stdout)["p"] - 1.0) < 1e-6


@pytest.mark.parametrize("flags", [
    ("--window-fraction", "0"), ("--window-fraction", "1.5"),
    ("--window-fraction", "nan"), ("--t-lo", "1000", "--t-hi", "10"),
    ("--t-lo", "nan"), ("--t-hi", "nan"),
], ids=" ".join)
def test_fit_rejects_bad_window_flags(tmp_path, capsys, flags):
    # usage errors, not numerical failures: exit 2 before any fit
    code, stdout, err = run_cli(capsys, "fit", "--trace", str(synthetic_csv(tmp_path)),
                                "--series", "obj", "--model", "power", *flags)
    assert code == 2
    assert stdout == ""
    assert flags[0] in err


def test_fit_missing_column(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("t,qnorm\n1,0.0\n2,0.0\n")
    code, _, err = run_cli(capsys, "fit", "--trace", str(path),
                           "--series", "obj", "--model", "power")
    assert code == 2
    assert "f_err" in err


def test_fit_on_real_trace(tmp_path, capsys):
    out, _ = solve_qp(tmp_path, capsys, iters=20_000)
    code, stdout, _ = run_cli(capsys, "fit", "--trace", str(out),
                              "--series", "constraint", "--model", "power",
                              "--t-lo", "1000", "--t-hi", "20000")
    assert code == 0
    assert 0.85 <= json.loads(stdout)["p"] <= 1.15


def test_audit_passes_on_compliant_run(tmp_path, capsys):
    out, _ = solve_qp(tmp_path, capsys, iters=5000)
    code, stdout, _ = run_cli(capsys, "audit", "--builtin", "qp_6_2",
                              "--trace", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert all(e["pass"] for e in report if e["applicable"])


def test_audit_truncated_csv(tmp_path, capsys):
    out, _ = solve_qp(tmp_path, capsys, iters=200)
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:4] + [lines[4][:8]]) + "\n")
    code, _, _ = run_cli(capsys, "audit", "--builtin", "qp_6_2",
                         "--trace", str(out))
    assert code == 2


@pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-5"])
def test_audit_rejects_bad_gamma(tmp_path, capsys, gamma):
    out, _ = solve_qp(tmp_path, capsys, iters=200)
    code, stdout, err = run_cli(capsys, "audit", "--builtin", "qp_6_2",
                                "--trace", str(out), "--gamma", gamma)
    assert code == 2
    assert stdout == ""
    assert "--gamma must be positive and finite" in err


def test_info_matches_pinned_output(capsys):
    # every constant's name, value, source and order, default_V and
    # has_reference
    code, stdout, err = run_cli(capsys, "info")
    assert (code, err) == (0, "")
    assert json.loads(stdout) == PINNED["info"]


@pytest.mark.parametrize("tag", sorted(PINNED["kkt"]))
def test_kkt_matches_pinned_output(capsys, tag):
    code, stdout, err = run_cli(capsys, "kkt", "--builtin", tag)
    assert (code, err) == (0, "")
    assert json.loads(stdout) == PINNED["kkt"][tag]


def test_kkt_outputs(capsys):
    code, stdout, _ = run_cli(capsys, "kkt", "--builtin", "num_6_1")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["active_constraints"] == [1, 3]
    assert doc["slack_constraints"] == [2]

    code, stdout, _ = run_cli(capsys, "kkt", "--builtin", "qp_6_2")
    doc = json.loads(stdout)
    assert np.allclose(doc["x_star"], [-1.0, -1.0])
    assert doc["f_star"] == pytest.approx(8.0, abs=1e-9)

    code, stdout, _ = run_cli(capsys, "kkt", "--builtin",
                              "num_5_2_rank_deficient")
    doc = json.loads(stdout)
    assert np.allclose(doc["lambda_star"], [0.46628, 0.17078, 0.70284, 0.0],
                       atol=1e-5)


def test_info_lists_builtins(capsys):
    code, stdout, _ = run_cli(capsys, "info")
    assert code == 0
    docs = json.loads(stdout)
    assert {d["tag"] for d in docs} == {"num_6_1", "qp_6_2",
                                        "num_5_2_rank_deficient"}
    assert all(d["has_reference"] for d in docs)


def test_solve_with_problem_file(tmp_path, capsys):
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(BUILTINS["qp_6_2"]))
    out = tmp_path / "mine.csv"
    code, _, _ = run_cli(capsys, "solve", "--problem", str(path),
                         "--iters", "100", "--out", str(out))
    assert code == 0
    assert out.exists()


@pytest.mark.parametrize("tag,field,value", [
    ("num_6_1", "b", float("nan")),
    ("num_6_1", "xmax", float("inf")),
    ("num_6_1", "c", float("nan")),
    ("qp_6_2", "A", float("-inf")),
    ("qp_6_2", "P", float("nan")),
])
def test_problem_file_rejects_non_finite_data(tmp_path, capsys, tag, field, value):
    doc = copy.deepcopy(BUILTINS[tag])
    row = doc[field][0] if isinstance(doc[field][0], list) else doc[field]
    row[0] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # NaN / Infinity tokens, as json writes them
    code, _, err = run_cli(capsys, "solve", "--problem", str(path),
                           "--iters", "10", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert f"{field} must be finite" in err
    assert not (tmp_path / "x.csv.summary.json").exists()


@pytest.mark.parametrize("tag,field,value", [
    ("num_6_1", "alpha", None),
    ("num_6_1", "alpha", [1]),
    ("qp_6_2", "beta", {"x": 1}),
    ("qp_6_2", "P", {"a": 1}),
    ("qp_6_2", "alpha", float("inf")),  # 1e400 parses to inf; gamma would be 0
])
def test_problem_file_rejects_wrong_json_types(tmp_path, capsys, tag, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BUILTINS[tag], field: value}))
    code, _, err = run_cli(capsys, "solve", "--problem", str(path),
                           "--iters", "10", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert f"problem field {field!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("tag", ["num_6_1", "qp_6_2"])
def test_problem_file_rejects_empty_constraint_matrix(tmp_path, capsys, tag):
    doc = {**BUILTINS[tag], "A": [], "b": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", "--problem", str(path),
                           "--iters", "10", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "A needs at least one constraint row" in err


@pytest.mark.parametrize("tag", ["num_6_1", "qp_6_2"])
def test_audit_problem_file_without_gamma(tmp_path, capsys, tag):
    # problem files carry the computed gamma = ||A||_F^2 / alpha
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(BUILTINS[tag]))
    out = tmp_path / "mine.csv"
    code, _, _ = run_cli(capsys, "solve", "--problem", str(path),
                         "--iters", "5000", "--out", str(out))
    assert code == 0
    code, stdout, _ = run_cli(capsys, "audit", "--problem", str(path),
                              "--trace", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert len(report) == 6
    assert all(e["applicable"] and e["pass"] for e in report)


@pytest.mark.parametrize("flag,value", [
    ("--V", "nan"), ("--V", "inf"), ("--q0", "nan"),
])
def test_solve_rejects_non_finite_parameters(tmp_path, capsys, flag, value):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "solve", "--builtin", "num_6_1",
                           "--iters", "50", flag, value, "--out", str(out))
    assert code == 2
    assert "finite" in err
    assert not out.exists()
    assert not (tmp_path / "x.csv.summary.json").exists()


def test_audit_rejects_summary_of_another_problem(tmp_path, capsys):
    # same data under another tag: only the summary's problem field differs
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(BUILTINS["qp_6_2"]))
    out = tmp_path / "mine.csv"
    code, _, _ = run_cli(capsys, "solve", "--problem", str(path),
                         "--iters", "200", "--out", str(out))
    assert code == 0
    code, _, err = run_cli(capsys, "audit", "--builtin", "qp_6_2",
                           "--trace", str(out))
    assert code == 2
    assert "'mine'" in err and "'qp_6_2'" in err


@pytest.mark.parametrize("extra", [(), ("--gamma", "100")])
def test_audit_rejects_q0_of_wrong_length(tmp_path, capsys, extra):
    out, _ = solve_qp(tmp_path, capsys, iters=200, extra=("--q0", "1"))
    summary_path = out.parent / (out.name + ".summary.json")
    summary = json.loads(summary_path.read_text())
    summary["q0"] = [1.0, 1.0, 50.0]  # qp_6_2 has m = 2
    summary_path.write_text(json.dumps(summary))
    code, stdout, err = run_cli(capsys, "audit", "--builtin", "qp_6_2",
                                "--trace", str(out), *extra)
    assert code == 2
    assert stdout == ""
    assert "q0 has length 3, expected 2" in err


@pytest.mark.parametrize("summary,message", [
    ({"V": 1.0, "iters": 200, "q0": [0.0, 0.0]}, "lacks the field 'problem'"),
    ({"problem": "qp_6_2", "iters": 200, "q0": [0.0, 0.0]}, "lacks the field 'V'"),
    ([1, 2], "cannot read"),
    ({"problem": "qp_6_2", "V": True, "q0": [0.0, 0.0]}, "'V' must be a finite number"),
    ({"problem": "qp_6_2", "V": "1e3", "q0": [0.0, 0.0]}, "'V' must be a finite number"),
    ({"problem": "qp_6_2", "V": 0, "q0": [0.0, 0.0]}, "'V' must be positive"),
    ({"problem": "qp_6_2", "V": 1.0, "q0": [True, False]}, "'q0' must be an array"),
    ({"problem": "qp_6_2", "V": 1.0, "q0": ["0", "0"]}, "'q0' must be an array"),
])
def test_audit_rejects_malformed_summary(tmp_path, capsys, summary, message):
    out, _ = solve_qp(tmp_path, capsys, iters=200)
    (out.parent / (out.name + ".summary.json")).write_text(json.dumps(summary))
    code, _, err = run_cli(capsys, "audit", "--builtin", "qp_6_2",
                           "--trace", str(out))
    assert code == 2
    assert message in err


@pytest.mark.parametrize("edit", ["swap", "repeat"])
def test_audit_rejects_non_increasing_t(tmp_path, capsys, edit):
    out, _ = solve_qp(tmp_path, capsys, iters=200)
    lines = out.read_text().splitlines()
    if edit == "swap":
        lines[3], lines[4] = lines[4], lines[3]
    else:
        lines[4] = lines[3]
    out.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "audit", "--builtin", "qp_6_2",
                           "--trace", str(out))
    assert code == 2
    assert "strictly increasing" in err


def threshold_warning(V: str, floor: str) -> str:
    return (f"warning: V={V} is below the guarantee threshold m*beta^2/alpha={floor}; "
            "convergence bounds may not apply\n")


FLOORS = {"qp_6_2": "11.7647", "num_6_1": "544.5"}


@pytest.mark.filterwarnings("always:.*below the guarantee threshold:UserWarning")
@pytest.mark.parametrize("tag", ["qp_6_2", "num_6_1"])
def test_solve_that_overflows_exits_3(tmp_path, capsys, tag):
    # V is positive and finite, but x(t) or Q(t) / V leaves the doubles;
    # the V warning is one line, with no source path
    out = tmp_path / "tiny.csv"
    code, stdout, err = run_cli(capsys, "solve", "--builtin", tag,
                                "--V", "1e-300", "--iters", "100",
                                "--out", str(out))
    assert code == 3
    assert err == (threshold_warning("1e-300", FLOORS[tag])
                   + "error: non-finite value in the sample at t = 1\n")
    assert stdout == ""
    # the first sample is already non-finite: no rows, no summary
    assert not out.exists()
    assert not (tmp_path / "tiny.csv.summary.json").exists()


@pytest.mark.filterwarnings("always:.*below the guarantee threshold:UserWarning")
@pytest.mark.parametrize("argv,t", [
    (["--builtin", "qp_6_2", "--V", "1e-300"], 1),
    (["--builtin", "num_6_1", "--algorithm", "dpp-shifted", "--V", "1e-100",
      "--sample", "linear"], 2),
], ids=["qp_6_2", "num_6_1-dpp-shifted"])
def test_solve_that_overflows_over_several_blocks_exits_3(tmp_path, capsys, argv, t):
    # the run spans three blocks of the kernel; the first non-finite
    # sample is still the one reported, and the rows before it are written
    out = tmp_path / "tiny.csv"
    code, stdout, err = run_cli(capsys, "solve", *argv, "--iters", str(3 * _BLOCK - 1),
                                "--out", str(out))
    V, floor = argv[argv.index("--V") + 1], FLOORS[argv[1]]
    assert (code, stdout) == (3, "")
    assert err == (threshold_warning(V, floor)
                   + f"error: non-finite value in the sample at t = {t}\n")
    rows = out.read_text().splitlines()[1:] if out.exists() else []
    assert [int(r.split(",")[0]) for r in rows] == list(range(1, t))


def test_kkt_refuses_more_than_20_constraints(tmp_path, capsys):
    doc = {"kind": "qp", "P": [[1.0, 0.0], [0.0, 1.0]], "c": [0.0, 0.0],
           "A": [[1.0, 0.0]] * 21, "b": [1.0] * 21}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "kkt", "--problem", str(path))
    assert code == 3
    assert "too many constraints for the enumeration oracle" in err


def wide_qp_file(tmp_path):
    # qp_6_2 plus 19 slack rows x_1 >= -10: 21 constraints, more than the
    # KKT enumeration takes, so the problem has no reference solution
    doc = copy.deepcopy(BUILTINS["qp_6_2"])
    doc["A"] += [[-1.0, 0.0]] * 19
    doc["b"] += [10.0] * 19
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    return path


def csv_module_bytes(trace, bundle) -> bytes:
    """The trace CSV as ``csv.writer`` writes it, every number as
    f"{v:.17g}" and ``f_err`` blank without a reference."""
    m, ref = bundle.program.m, bundle.reference
    header = ["t", "f_avg", "f_err"] + [f"g_{k + 1}" for k in range(m)] + ["qnorm"]
    f_err = [None] * len(trace)
    if ref is not None:
        header += ["lambda_dist", "dual_gap"]
        f_err = np.abs(trace.f_xbar - ref.f_star)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for i in range(len(trace)):
        values = [trace.f_xbar[i], f_err[i], *trace.g_xbar[i], trace.qnorm[i]]
        if ref is not None:
            values += [trace.lambda_dist[i], trace.dual_gap[i]]
        writer.writerow([str(trace.t[i])]
                        + ["" if v is None else f"{v:.17g}" for v in values])
    return buf.getvalue().encode()


def solve_linear(tmp_path, capsys, source, bundle, iters, algorithm="dpp",
                 V=None, q0=0.0):
    """`solve --sample linear` through the CLI, and the same run through
    ``run``; returns the CSV path and the trace."""
    out = tmp_path / "dense.csv"
    argv = ["solve", *source, "--algorithm", algorithm, "--iters", str(iters),
            "--q0", repr(q0), "--sample", "linear", "--out", str(out)]
    if V is not None:
        argv += ["--V", repr(V)]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # V = 422 is below m beta^2/alpha
        trace = run(bundle.program, bundle.oracle,
                    V=V if V is not None else choose_V(bundle.program),
                    q0=np.full(bundle.program.m, q0), iters=iters,
                    variant=cli.ALGORITHMS[algorithm], sample="linear",
                    reference=bundle.reference)
    return out, trace


def test_csv_bytes_match_the_csv_module_with_reference(tmp_path, capsys):
    out, trace = solve_linear(tmp_path, capsys, ["--builtin", "num_6_1"],
                              builtin("num_6_1"), 500, "dpp-shifted", V=422.0, q0=3.0)
    assert out.read_bytes() == csv_module_bytes(trace, builtin("num_6_1"))


def test_csv_bytes_match_the_csv_module_without_reference(tmp_path, capsys):
    path = wide_qp_file(tmp_path)
    bundle = load_problem(path)
    assert bundle.reference is None
    out, trace = solve_linear(tmp_path, capsys, ["--problem", str(path)], bundle, 300)
    assert out.read_bytes() == csv_module_bytes(trace, bundle)


def test_csv_bytes_of_a_dense_shifted_trace_match_the_csv_module(tmp_path, capsys):
    # the shifted average repeats its window on every odd row, and past the
    # queue's fixed point the dual columns are constant: many cells are
    # copies of the cell above (43% here), over six 512-row slices
    bundle = builtin("qp_6_2")
    out, trace = solve_linear(tmp_path, capsys, ["--builtin", "qp_6_2"], bundle, 3000,
                              "dpp-shifted")
    cells = np.column_stack([trace.f_xbar, trace.g_xbar, trace.qnorm, trace.lambda_dist,
                             trace.dual_gap]).view(np.int64)
    assert (cells[1:] == cells[:-1]).mean() > 0.4
    assert out.read_bytes() == csv_module_bytes(trace, bundle)


def synthetic_cells(rng, shape):
    """Doubles from every binary exponent (random finite bit patterns), with
    ordinary values, zeros, -0.0 and subnormals mixed in."""
    bits = rng.integers(0, 2 ** 64, shape, dtype=np.uint64).view(float)
    kind = rng.integers(0, 5, shape)
    ordinary = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    subnormal = rng.integers(1, 2 ** 52, shape, dtype=np.uint64).view(float)
    cells = np.where(kind == 0, np.where(np.isfinite(bits), bits, 0.0), ordinary)
    cells = np.where(kind == 2, rng.choice([0.0, -0.0], shape), cells)
    return np.where(kind == 3, rng.choice([1.0, -1.0], shape) * subnormal, cells)


@pytest.mark.parametrize("m", [1, 2, 8, 20])
@pytest.mark.parametrize("with_reference", [True, False])
def test_write_csv_matches_the_csv_module_on_synthetic_traces(tmp_path, m, with_reference):
    # the row counts cross the edges of the formatter's 512-row slices,
    # which are the writer's chunks
    rng = np.random.default_rng(m)
    reference = SimpleNamespace(f_star=-1e300) if with_reference else None
    bundle = SimpleNamespace(program=SimpleNamespace(m=m), reference=reference)
    for rows in (1, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025, 2500):
        dual = [synthetic_cells(rng, rows) for _ in range(2)] if with_reference else [None] * 2
        trace = IterateTrace(t=np.cumsum(rng.integers(1, 10 ** 6, rows)),
                             f_xbar=synthetic_cells(rng, rows),
                             g_xbar=synthetic_cells(rng, (rows, m)),
                             qnorm=synthetic_cells(rng, rows), lambda_dist=dual[0],
                             dual_gap=dual[1])
        # run leaves f_err out of its finite check: |f_avg - f*| overflows
        # here, and %.17g writes the cell as inf
        trace.f_xbar[0] = 1.7976931348623157e308
        out = tmp_path / f"{rows}.csv"
        with np.errstate(over="ignore"):
            if with_reference:
                trace.f_err = np.abs(trace.f_xbar - reference.f_star)
            cli._write_csv(out, trace)
            expected = csv_module_bytes(trace, bundle)
        assert out.read_bytes() == expected, rows
        assert expected.split(b"\r\n")[1].split(b",")[2] == (b"inf" if with_reference else b"")


@pytest.mark.parametrize("tag,algorithm,V,q0", [
    *((tag, algorithm, None, 0.0) for tag in BUILTINS for algorithm in sorted(cli.ALGORITHMS)),
    ("num_6_1", "dpp-shifted", 422.0, 3.0),
])
def test_trace_csv_round_trips_bitwise(tmp_path, capsys, monkeypatch, tag, algorithm, V, q0):
    # every column of the CSV, parsed, rebuilds run's trace field for field,
    # f_err included; the run-level fields are the summary's
    bundle = builtin(tag)
    out, trace = solve_linear(tmp_path, capsys, ["--builtin", tag], bundle, 2000, algorithm,
                              V=V, q0=q0)
    monkeypatch.setattr(cli, "_last_written", None)
    summary = json.loads(summary_of(out).read_text())
    back = IterateTrace.from_columns(_read_trace_csv(out, lambda name: True),
                                     bundle.program.m, summary["V"])
    back.max_drift_residual = summary["max_drift_residual"]
    assert trace.f_err is not None
    for name, want in vars(trace).items():
        got = getattr(back, name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), name
        else:
            assert repr(got) == repr(want), name


def test_a_column_added_to_the_layout_is_written_summarized_and_read(tmp_path, capsys,
                                                                     monkeypatch):
    # the CSV, the summary's final block and the reader all follow
    # IterateTrace.columns: no list of columns is kept beside it
    columns = IterateTrace.columns
    monkeypatch.setattr(IterateTrace, "columns",
                        lambda self: {**columns(self), "scratch": 2.0 * self.qnorm})
    out, summary = solve_qp(tmp_path, capsys, iters=200)
    assert out.read_text().splitlines()[0].endswith(",dual_gap,scratch")
    assert summary["final"]["scratch"] == 2.0 * summary["final"]["qnorm"]
    hit = read_all(out)
    monkeypatch.setattr(cli, "_last_written", None)
    for cols in (hit, read_all(out)):
        assert list(cols)[-2:] == ["dual_gap", "scratch"]
        assert np.array_equal(cols["scratch"], 2.0 * cols["qnorm"])


def test_read_trace_csv_parses_only_the_selected_columns(tmp_path, capsys):
    out, _ = solve_qp(tmp_path, capsys, iters=50)
    lines = out.read_text().splitlines()
    # a non-numeric cell in a column nobody asked for is not parsed
    lines[5] = lines[5].replace(lines[5].split(",")[-1], "junk")
    out.write_text("\n".join(lines) + "\n")
    assert list(_read_trace_csv(out, {"t", "qnorm"}.__contains__)) == ["t", "qnorm"]
    with pytest.raises(ValueError, match="junk"):
        _read_trace_csv(out, {"t", "dual_gap"}.__contains__)


# In one process, a read of the trace that solve wrote last takes its
# columns from ``cli._last_written``; they must be bitwise what a parse of
# the file gives.

def assert_same_columns(got, want):
    assert list(got) == list(want)
    for name, col in want.items():
        if col is None:
            assert got[name] is None, name
        else:
            assert (got[name].dtype, got[name].tobytes()) == (col.dtype, col.tobytes()), name


def read_all(path):
    return _read_trace_csv(path, lambda name: True)


SOLVES = {f"{tag}-{algorithm}-{sample}": ["--builtin", tag, "--algorithm", algorithm,
                                          "--sample", sample, "--iters", "300"]
          for tag in BUILTINS for algorithm in sorted(cli.ALGORITHMS)
          for sample in ("log", "linear:7")}
# the partial trace of a run that overflows at t = 2: one row
SOLVES["num_6_1-overflow"] = ["--builtin", "num_6_1", "--algorithm", "dpp-shifted",
                              "--V", "1e-100", "--sample", "linear", "--iters", "100"]


@pytest.mark.parametrize("solve", [*SOLVES, "no-reference"])
def test_reading_the_trace_just_written_equals_a_parse(tmp_path, capsys, monkeypatch,
                                                       solve):
    out = tmp_path / "trace.csv"
    argv = ["--problem", str(wide_qp_file(tmp_path)), "--iters", "300"] \
        if solve == "no-reference" else SOLVES[solve]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # V = 1e-100 is below the threshold
        code, _, _ = run_cli(capsys, "solve", *argv, "--out", str(out))
    assert code == (3 if solve.endswith("overflow") else 0)
    # the selections audit and both fits make, recorded as they read
    reads = []

    def recorded(path, columns):
        reads.append((columns, _read_trace_csv(path, columns)))
        return reads[-1][1]

    monkeypatch.setattr(cli, "_read_trace_csv", recorded)
    tag = "qp_6_2" if solve == "no-reference" else argv[1]
    run_cli(capsys, "audit", "--builtin", tag, "--trace", str(out))
    for series in ("obj", "constraint"):
        run_cli(capsys, "fit", "--trace", str(out), "--series", series, "--model", "power")
    reads.append((lambda name: True, read_all(out)))
    assert len(reads) == 4
    entry = cli._last_written[1]
    for columns, hit in reads:
        assert all(col is entry[name] for name, col in hit.items())
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_last_written", None)
            assert_same_columns(hit, _read_trace_csv(out, columns))
    assert (entry["f_err"] is None) == (solve == "no-reference")


@pytest.mark.parametrize("q0", ["0", "2"])
@pytest.mark.parametrize("solve", [*(s for s in SOLVES if not s.endswith("overflow")),
                                   "no-reference"])
def test_summary_final_is_the_csvs_last_row(tmp_path, capsys, solve, q0):
    # the summary's final block is the last CSV row, each cell read back
    # with float (t with int, a blank cell as null), and its max_violation
    # is max(0, max_k g_k) of that row; every number bit for bit
    out = tmp_path / "trace.csv"
    argv = ["--problem", str(wide_qp_file(tmp_path)), "--iters", "300"] \
        if solve == "no-reference" else SOLVES[solve]
    code, _, _ = run_cli(capsys, "solve", *argv, "--q0", q0, "--out", str(out))
    assert code == 0
    header, *_, last = out.read_text().splitlines()
    row = dict(zip(header.split(","), last.split(",")))
    want = {name: float(row[name]) if row.get(name) else None
            for name in ("f_avg", "f_err", "qnorm", "lambda_dist", "dual_gap")}
    want["t"] = int(row["t"])
    want["max_violation"] = max(0.0, *(float(v) for name, v in row.items()
                                       if name.startswith("g_")))
    final = json.loads(summary_of(out).read_text())["final"]
    assert {k: repr(v) for k, v in final.items()} == {k: repr(v) for k, v in want.items()}
    nulls = {"f_err", "lambda_dist", "dual_gap"} if solve == "no-reference" else set()
    assert {k for k, v in final.items() if v is None} == nulls


def test_the_entry_follows_the_bytes_not_the_path(tmp_path, capsys):
    first, _ = solve_qp(tmp_path, capsys, iters=200)
    want = read_all(first)
    copy = tmp_path / "copy.csv"
    copy.write_bytes(first.read_bytes())
    assert all(col is want[name] for name, col in read_all(copy).items())
    # a second solve to another path replaces the entry: the first file is parsed
    code, _, _ = run_cli(capsys, "solve", "--builtin", "num_6_1", "--iters", "200",
                         "--out", str(tmp_path / "num.csv"))
    assert code == 0
    got = read_all(first)
    assert got["t"] is not want["t"]
    assert_same_columns(got, want)
    # a write that fails leaves no entry
    code, _, _ = run_cli(capsys, "solve", "--builtin", "qp_6_2", "--iters", "200",
                         "--out", str(tmp_path / "missing" / "qp.csv"))
    assert code == 2
    assert cli._last_written is None


def test_only_the_whole_of_the_bytes_written_is_a_hit(tmp_path, capsys, monkeypatch):
    # 2,501 rows: the header and five pieces of at most 512 rows.  A file
    # that runs past the bytes written, stops short of them, has another
    # header or another digit in a middle piece is parsed, and so is an
    # empty file when there is no entry.
    out, _ = solve_qp(tmp_path, capsys, iters=2500, extra=("--sample", "linear"))
    raw, want = out.read_bytes(), read_all(out)
    lines = raw.split(b"\r\n")
    cells = lines[600].split(b",")  # t = 600, in the second piece
    digit = next(i for i, c in enumerate(cells[1]) if c in b"12345678")
    cells[1] = cells[1][:digit] + bytes([cells[1][digit] + 1]) + cells[1][digit + 1:]
    out.write_bytes(b"\r\n".join([*lines[:600], b",".join(cells), *lines[601:]]))
    assert out.stat().st_size == len(raw)
    got = read_all(out)
    assert all(col is not want[name] for name, col in got.items())
    assert np.flatnonzero(got["f_avg"] != want["f_avg"]).tolist() == [599]
    assert_same_columns({**got, "f_avg": want["f_avg"]}, want)
    last = raw[raw.rindex(b"\r\n", 0, len(raw) - 2) + 2:]
    out.write_bytes(raw + last)  # the last row twice: t stops increasing
    with pytest.raises(ValueError, match="strictly increasing"):
        read_all(out)
    out.write_bytes(raw[:-len(last)])
    got = read_all(out)
    assert all(col is not want[name] for name, col in got.items())
    assert_same_columns(got, {name: col[:-1] for name, col in want.items()})
    out.write_bytes(raw.replace(b"qnorm", b"Qnorm", 1))
    assert list(read_all(out)) == [name.replace("qnorm", "Qnorm") for name in want]
    monkeypatch.setattr(cli, "_last_written", None)
    out.write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        read_all(out)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
def test_a_pipe_is_parsed_as_it_arrives(tmp_path, capsys):
    # a pipe cannot be rewound, so it is not compared with the entry but
    # parsed; a thread feeds it, as its buffer holds less than the trace
    out, _ = solve_qp(tmp_path, capsys, iters=2500, extra=("--sample", "linear"))
    raw, want = out.read_bytes(), read_all(out)

    def write(fd, data):
        with open(fd, "wb") as fh:
            fh.write(data)

    def read_piped(data):
        r, w = os.pipe()
        feed = threading.Thread(target=write, args=(w, data))
        feed.start()
        try:
            cols = read_all(Path(f"/dev/fd/{r}"))
        finally:
            os.close(r)
            feed.join(timeout=60)
        assert not feed.is_alive()
        return cols

    assert_same_columns(read_piped(raw), want)
    got = read_piped(raw.replace(b"qnorm", b"Qnorm", 1))
    assert list(got) == [name.replace("qnorm", "Qnorm") for name in want]
    assert got["Qnorm"].tobytes() == want["qnorm"].tobytes()


def test_a_hit_holds_one_piece_at_a_time(tmp_path, capsys):
    # the dense dpp-shifted num_6_1 trace (1.7 MB): a hit reads the file in
    # the writer's pieces, at most 92 KB each, and peaks at 0.09 MiB; a read
    # of the whole file peaks at 1.76 MiB
    out = tmp_path / "dense.csv"
    code, _, _ = run_cli(capsys, "solve", "--builtin", "num_6_1", "--algorithm",
                         "dpp-shifted", "--V", "422", "--sample", "linear",
                         "--iters", "10000", "--out", str(out))
    assert code == 0 and out.stat().st_size > 1.7e6
    tracemalloc.start()
    try:
        hit = read_all(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(col is cli._last_written[1][name] for name, col in hit.items())
    assert peak < 0.25 * 2 ** 20


def test_read_columns_are_read_only(tmp_path, capsys, monkeypatch):
    out, _ = solve_qp(tmp_path, capsys, iters=200)
    hit = read_all(out)
    monkeypatch.setattr(cli, "_last_written", None)
    for cols in (hit, read_all(out)):
        for col in cols.values():
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 1.0


def test_lines_end_as_in_text_mode(tmp_path, capsys, monkeypatch):
    out, _ = solve_qp(tmp_path, capsys, iters=200)
    monkeypatch.setattr(cli, "_last_written", None)
    want, crlf = read_all(out), out.read_bytes()
    copy = tmp_path / "copy.csv"
    for end in (b"\n", b"\r"):
        copy.write_bytes(crlf.replace(b"\r\n", end))
        assert_same_columns(read_all(copy), want)
    # a separator that str.splitlines knows but text mode does not joins two rows
    lines = crlf.split(b"\r\n")
    copy.write_bytes(b"\r\n".join([*lines[:2], "\u2028".encode().join(lines[2:4]), *lines[4:]]))
    with pytest.raises(ValueError, match="ragged"):
        read_all(copy)


def fit_and_audit_codes(capsys, out):
    codes = [run_cli(capsys, "fit", "--trace", str(out), "--series", series,
                     "--model", "power")[0] for series in ("obj", "constraint")]
    return codes + [run_cli(capsys, "audit", "--builtin", "qp_6_2",
                            "--trace", str(out))[0]]


def test_row_missing_an_unread_field_exits_2(tmp_path, capsys):
    # fit reads neither dual column, but a short row is malformed anyway
    out, _ = solve_qp(tmp_path, capsys, iters=200)
    assert fit_and_audit_codes(capsys, out) == [0, 0, 0]
    lines = out.read_bytes().split(b"\r\n")
    assert lines[-1] == b""
    lines[-2] = lines[-2].rsplit(b",", 1)[0]  # drop the last row's dual_gap
    out.write_bytes(b"\r\n".join(lines))
    assert fit_and_audit_codes(capsys, out) == [2, 2, 2]


def test_blank_cell_inside_f_err_exits_2(tmp_path, capsys):
    out, _ = solve_qp(tmp_path, capsys, iters=200)
    lines = out.read_text().splitlines()
    cells = lines[10].split(",")
    cells[2] = ""
    lines[10] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    code, stdout, err = run_cli(capsys, "fit", "--trace", str(out),
                                "--series", "obj", "--model", "power")
    assert (code, stdout) == (2, "")
    assert "cannot read trace" in err


def test_pipeline_without_reference(tmp_path, capsys):
    path = wide_qp_file(tmp_path)
    out = tmp_path / "wide.csv"
    code, _, _ = run_cli(capsys, "solve", "--problem", str(path),
                         "--iters", "2000", "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "f_avg", "f_err"] + [f"g_{k}" for k in range(1, 22)] + ["qnorm"]
    assert all(row[2] == "" for row in rows[1:])
    code, stdout, _ = run_cli(capsys, "fit", "--trace", str(out),
                              "--series", "constraint", "--model", "power")
    assert code == 0
    assert json.loads(stdout)["p"] > 0
    code, _, err = run_cli(capsys, "fit", "--trace", str(out),
                           "--series", "obj", "--model", "power")
    assert code == 2
    assert "f_err" in err
    code, _, err = run_cli(capsys, "audit", "--problem", str(path),
                           "--trace", str(out))
    assert code == 3
    assert "no ground-truth solution" in err


# `main` builds its parser on the first call and reuses it for every later
# call in the process; no call may see what an earlier one parsed or printed.

def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    # a parser cache of this test's own, empty at its start
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
    assert run_cli(capsys, "kkt", "--builtin", "qp_6_2")[0] == 0
    assert len(built) == 6  # the top-level parser and one per subcommand
    assert run_cli(capsys, "kkt", "--builtin", "num_6_1")[0] == 0
    assert run_cli(capsys, "nope")[0] == 2
    assert len(built) == 6


def test_solve_flags_do_not_carry_over(tmp_path, capsys):
    _, summary = solve_qp(tmp_path, capsys, iters=50,
                          extra=("--q0", "3", "--V", "500", "--sample", "linear"))
    assert (summary["q0"], summary["V"], summary["sampling"]) == ([3.0, 3.0], 500.0, "linear")
    assert summary["samples"] == 50
    _, summary = solve_qp(tmp_path, capsys, iters=50)
    V = choose_V(builtin("qp_6_2").program)
    assert (summary["q0"], summary["V"], summary["sampling"]) == ([0.0, 0.0], V, "log")


@pytest.mark.parametrize("argv, code", [
    (["solve", "--builtin", "qp_6_2", "--iters", "ten", "--out", "x.csv"], 2),
    (["kkt"], 2),
    (["audit", "--builtin", "qp_6_2"], 2),
    (["--help"], 0),
    (["solve", "--help"], 0),
])
def test_valid_call_after_usage_error_or_help(capsys, argv, code):
    got, stdout, err = run_cli(capsys, *argv)
    assert got == code
    if code:  # one usage and one error message, on stderr
        assert stdout == "" and err.count("usage: driftopt") == 1
        assert "error:" in err.splitlines()[-1]
    else:
        assert err == "" and stdout.count("usage: driftopt") == 1
    got, stdout, err = run_cli(capsys, "kkt", "--builtin", "qp_6_2")
    assert (got, err) == (0, "")
    assert json.loads(stdout) == PINNED["kkt"]["qp_6_2"]


def test_only_solve_generates_a_num_step(tmp_path, capsys, monkeypatch):
    # a solve generates its NUM or QP step once, at its first block;
    # audit's oracles only call argmin, and fit, kkt and info step no oracle
    made = count_generations(monkeypatch)
    out, qp_out = tmp_path / "num.csv", tmp_path / "qp.csv"
    assert main(["solve", "--builtin", "num_6_1", "--iters", "3000", "--out", str(out)]) == 0
    assert len(made) == 1
    assert main(["solve", "--builtin", "qp_6_2", "--iters", "3000", "--out", str(qp_out)]) == 0
    assert len(made) == 2
    path = tmp_path / "num_6_1.json"
    path.write_text(json.dumps(BUILTINS["num_6_1"]))
    for argv in (["audit", "--builtin", "num_6_1", "--trace", out],
                 ["audit", "--problem", path, "--trace", out, "--gamma", "422"],
                 ["audit", "--builtin", "qp_6_2", "--trace", qp_out],
                 ["fit", "--trace", out, "--series", "obj", "--model", "power"],
                 ["kkt", "--builtin", "num_6_1"], ["kkt", "--problem", path],
                 ["kkt", "--builtin", "qp_6_2"], ["info"]):
        assert main([str(a) for a in argv]) == 0, argv
    capsys.readouterr()
    assert len(made) == 2


# `solve` writes its trace and summary in place: over an existing file,
# cut to the new length where the old one was longer, leaving the bytes,
# inode, mode and links that `open(path, "wb")` leaves.

DENSE_NUM = ["solve", "--builtin", "num_6_1", "--algorithm", "dpp-shifted", "--V", "422",
             "--sample", "linear"]
PARTIAL = ["solve", "--builtin", "num_6_1", "--algorithm", "dpp-shifted", "--V", "1e-100",
           "--sample", "linear", "--iters", "100"]


def summary_of(out):
    return out.with_name(out.name + ".summary.json")


def solve_to(capsys, argv, out, code=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # V below the threshold
        got, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert got == code, err
    return stdout, err


def test_a_rewrite_leaves_the_bytes_of_a_fresh_write(tmp_path, capsys):
    out, fresh = tmp_path / "trace.csv", tmp_path / "fresh.csv"
    solve_to(capsys, [*DENSE_NUM, "--iters", "10000"], out)
    old_size = out.stat().st_size
    out.chmod(0o640)
    before = out.stat()
    stdout, _ = solve_to(capsys, [*DENSE_NUM, "--iters", "100"], out)
    assert solve_to(capsys, [*DENSE_NUM, "--iters", "100"], fresh)[0] == stdout
    assert 0 < out.stat().st_size < old_size
    assert out.read_bytes() == fresh.read_bytes()
    assert summary_of(out).read_bytes() == summary_of(fresh).read_bytes()
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


def test_a_partial_trace_over_a_longer_one_equals_a_fresh_one(tmp_path, capsys):
    out, fresh = tmp_path / "trace.csv", tmp_path / "fresh.csv"
    solve_to(capsys, [*DENSE_NUM, "--iters", "300"], out)
    summary = summary_of(out).read_bytes()
    errs = [solve_to(capsys, PARTIAL, path, code=3) for path in (out, fresh)]
    assert errs[0] == errs[1]
    assert out.read_bytes() == fresh.read_bytes()
    assert out.read_bytes().count(b"\r\n") == 2  # the header and t = 1
    assert summary_of(out).read_bytes() == summary  # no summary on exit 3
    assert not summary_of(fresh).exists()


def test_a_failed_write_leaves_the_bytes_that_reached_the_file(tmp_path, capsys,
                                                               monkeypatch):
    out, fresh = tmp_path / "trace.csv", tmp_path / "fresh.csv"
    solve_to(capsys, [*DENSE_NUM, "--iters", "3000"], out)
    solve_to(capsys, [*DENSE_NUM, "--iters", "100"], fresh)
    header = fresh.read_bytes().split(b"\r\n")[0] + b"\r\n"

    class Full(io.BufferedWriter):
        # the disk fills after the first chunk
        writes = 0

        def write(self, data):
            Full.writes += 1
            if Full.writes > 1:
                raise OSError(28, "No space left on device")
            return super().write(data)

    monkeypatch.setattr(cli, "open", lambda fd, mode: Full(io.FileIO(fd, "w")),
                        raising=False)
    code, stdout, err = run_cli(capsys, *DENSE_NUM, "--iters", "100", "--out", str(out))
    assert (code, stdout, err) == (2, "", "error: [Errno 28] No space left on device\n")
    assert out.read_bytes() == header
    assert cli._last_written is None


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_out_to_a_fifo_delivers_the_bytes_of_a_file(tmp_path, capsys):
    # a FIFO reports size 0, so the writer neither asks its position nor
    # cuts it; a thread drains it, as its buffer holds less than the trace
    fifo, fresh = tmp_path / "pipe.csv", tmp_path / "fresh.csv"
    os.mkfifo(fifo)
    got = []

    def drain():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        solve_to(capsys, [*DENSE_NUM, "--iters", "2000"], fifo)
    finally:
        if reader.is_alive():  # a reader still waiting for a writer ends at EOF
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=60)
    assert not reader.is_alive()
    solve_to(capsys, [*DENSE_NUM, "--iters", "2000"], fresh)
    assert got == [fresh.read_bytes()]
    assert summary_of(fifo).read_bytes() == summary_of(fresh).read_bytes()


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
def test_out_to_a_symlink_writes_its_target(tmp_path, capsys):
    target, link, fresh = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "f.csv"
    solve_to(capsys, [*DENSE_NUM, "--iters", "3000"], target)
    try:
        link.symlink_to(target)
    except OSError:
        pytest.skip("symlinks cannot be made here")
    solve_to(capsys, [*DENSE_NUM, "--iters", "100"], link)
    solve_to(capsys, [*DENSE_NUM, "--iters", "100"], fresh)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh.read_bytes()


def test_solve_never_truncates_an_output_to_zero(tmp_path, capsys, monkeypatch):
    # every file solve writes is opened by os.open without O_TRUNC; no
    # "w" mode opens a path
    opened = []
    os_open, builtin_open = os.open, builtins.open

    def recording_os_open(path, flags, *args, **kwargs):
        opened.append(("os.open", path, flags))
        return os_open(path, flags, *args, **kwargs)

    def recording_open(file, mode="r", *args, **kwargs):
        opened.append(("open", file, mode))
        return builtin_open(file, mode, *args, **kwargs)

    out = tmp_path / "trace.csv"
    monkeypatch.setattr(os, "open", recording_os_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    for _ in range(2):
        assert main(["solve", "--builtin", "qp_6_2", "--iters", "500", "--out", str(out)]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    truncating = [call for call in opened if call[0] == "os.open" and call[2] & os.O_TRUNC]
    by_path = [call for call in opened if call[0] == "open"
               and not isinstance(call[1], int) and "w" in call[2]]
    assert truncating == [] and by_path == []
    created = [call[1] for call in opened if call[0] == "os.open" and call[2] & os.O_CREAT]
    assert created == [out, summary_of(out)] * 2
