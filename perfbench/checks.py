"""Output checks for every CLI command the benchmark runs.

Each check returns ``(ok, reason, info)``.  A command fails when its exit
code is not 0, when it raised, or when its output fails the check here;
failures are counted against the commands attempted.  The KKT check is
independent of the library: it recomputes feasibility, sign, complementary
slackness and stationarity from the problem data with plain numpy.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# The library's KKT feasibility tolerance (driftopt.reference.FEAS_TOL),
# restated so the check does not depend on the code it checks.
FEAS_TOL = 1e-8
# Stationarity residual, relative to the gradient's size.
STATIONARITY_RTOL = 1e-6
# Pinned final values match to the relative tolerance the tests use for
# bounds.
PINNED_RTOL = 1e-9
# The drift identity is exact up to rounding of terms of size ||Q||^2.
DRIFT_RTOL = 1e-13
# Accuracy whose first sampled hit is reported as solver.iters_to_eps.
EPS = 0.2


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(b))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_solve(expect: dict, stdout: str, out: Path):
    summary = json.loads(stdout)
    with open(out.with_name(out.name + ".summary.json")) as fh:
        if json.load(fh) != summary:
            return False, "summary file differs from stdout", {}
    header, rows = _read_csv(out)
    if header[:3] != ["t", "f_avg", "f_err"] or not rows:
        return False, "trace CSV has no header or no rows", {}
    col = {name: j for j, name in enumerate(header)}
    ts = [int(r[0]) for r in rows]
    iters = expect["iters"]
    if ts[-1] != iters or summary["final"]["t"] != iters or summary["samples"] != len(rows):
        return False, "trace does not end at the requested iteration", {}
    if any(b <= a for a, b in zip(ts, ts[1:])):
        return False, "trace iterations not increasing", {}
    qmax = max(float(r[col["qnorm"]]) for r in rows)
    residual = summary["max_drift_residual"]
    if not residual <= DRIFT_RTOL * (1.0 + qmax ** 2):
        return False, f"drift residual {residual:g} above rounding level", {}
    final = summary["final"]
    pinned = expect.get("pinned")
    if pinned is not None:
        got = (final["f_avg"], final["max_violation"], final["qnorm"])
        if not all(_close(g, p, PINNED_RTOL) for g, p in zip(got, pinned)):
            return False, f"final (f_avg, max_violation, qnorm) {got} != pinned {pinned}", {}
    gcols = [j for name, j in col.items() if name.startswith("g_")]
    hit = None
    if rows[0][col["f_err"]] != "":
        for r in rows:
            viol = max(0.0, max(float(r[j]) for j in gcols))
            if float(r[col["f_err"]]) <= EPS and viol <= EPS:
                hit = int(r[0])
                break
    return True, "", {"rows": len(rows), "iters": final["t"], "iters_to_eps": hit}


def check_audit(stdout: str):
    report = json.loads(stdout)
    applicable = {e["bound"] for e in report if e["applicable"]}
    if not {"objective_bound", "constraint_bound", "queue_bound"} <= applicable:
        return False, "audit skipped a bound that always applies", {}
    failed = [e["bound"] for e in report if e["applicable"] and e["pass"] is not True]
    if failed:
        return False, f"audit failed: {failed}", {}
    return True, "", {}


def check_fit(expect: dict, stdout: str):
    fit = json.loads(stdout)
    if fit["model"] != expect["model"]:
        return False, "fit reports another model", {}
    if not (math.isfinite(fit["C"]) and fit["C"] > 0 and 0.0 <= fit["quality"] <= 1.0):
        return False, f"fit constants out of range: {fit}", {}
    if fit["model"] == "power" and not math.isfinite(fit["p"]):
        return False, "power fit has no finite exponent", {}
    if fit["model"] == "geometric" and not 0.0 < fit["r"] < 1.0:
        return False, "geometric fit ratio outside (0, 1)", {}
    return True, "", {}


def check_kkt(expect: dict, stdout: str):
    doc = expect["problem"]
    sol = json.loads(stdout)
    A = np.asarray(doc["A"], dtype=float)
    b = np.asarray(doc["b"], dtype=float)
    c = np.asarray(doc["c"], dtype=float)
    x = np.asarray(sol["x_star"], dtype=float)
    lam = np.asarray(sol["lambda_star"], dtype=float)
    if x.shape != (A.shape[1],) or lam.shape != (A.shape[0],):
        return False, "kkt output has wrong dimensions", {}
    g = A @ x - b
    if doc["kind"] == "num":
        xmax = np.asarray(doc["xmax"], dtype=float)
        if np.any(x <= 0) or np.any(x >= xmax):
            return False, "x* not interior to the box", {}
        f = -float(c @ np.log(x))
        grad = -c / x
    else:
        P = np.asarray(doc["P"], dtype=float)
        f = float(x @ P @ x + c @ x)
        grad = 2.0 * P @ x + c
    if np.any(g > FEAS_TOL):
        return False, f"x* infeasible: max g = {g.max():g}", {}
    if np.any(lam < 0):
        return False, "negative multiplier", {}
    if np.any(np.abs(lam * g) > FEAS_TOL):
        return False, "complementary slackness fails", {}
    stationarity = np.abs(grad + A.T @ lam).max()
    if stationarity > STATIONARITY_RTOL * (1.0 + np.abs(grad).max()):
        return False, f"stationarity residual {stationarity:g}", {}
    if not _close(f, sol["f_star"], PINNED_RTOL):
        return False, "f_star does not match f(x*)", {}
    return True, "", {}


def check(op, rc, stdout: str):
    """Check one command's exit code and output."""
    if rc != 0:
        return False, f"exit code {rc}", {}
    try:
        if op.kind == "solve":
            return check_solve(op.expect, stdout, Path(op.argv[op.argv.index("--out") + 1]))
        if op.kind == "audit":
            return check_audit(stdout)
        if op.kind == "fit":
            return check_fit(op.expect, stdout)
        return check_kkt(op.expect, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"unreadable output: {exc!r}", {}
