"""Mutation check for the DPP kernel and the audit.

    python tests/mutants.py [NAME ...]

Run from the root of a checkout.  Each mutant below is one text edit to a
module of ``src/driftopt`` whose original text must occur there exactly
once, with the tests that must kill it.  For each mutant (all, or the ones
named), the script copies ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml`` to a temporary directory, applies the edit and runs its
tests there in one pytest process, one mutant at a time.  A failing run
kills the mutant.  The unmutated copy first runs the union of the tests,
which must pass.  It prints each mutant as killed or survived, with its
time, and exits 1 if one survived.

This is not a tier-1 test module (pytest collects ``test_*.py`` only) and
installs nothing.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

S, D = "solver.py", "diagnostics.py"
T_SOLVER, T_DIAG = "tests/test_solver.py", "tests/test_diagnostics.py"

# (name, module, original text, mutated text, tests that must kill it)
MUTANTS = [
    ("warn-at-the-threshold", S, "V < floor * (1 - 1e-12)", "V <= floor * (1 - 1e-12)",
     [f"{T_SOLVER}::test_warns_below_guarantee_threshold"]),
    ("dual-value-gate-strict", D, "V >= gamma / 2.0", "V > gamma / 2.0",
     [f"{T_DIAG}::test_audit_gates_on_preconditions"]),
    ("dual-gap-gate-strict", D, "V >= gamma and", "V > gamma and",
     [f"{T_DIAG}::test_audit_gates_on_preconditions"]),
    ("objective-tolerance-sign", D, "1e-9 * (1.0 + np.abs(rhs).max())",
     "1e-9 * (1.0 - np.abs(rhs).max())",
     [f"{T_DIAG}::test_objective_tolerance_grows_with_the_rhs_from_a_nonzero_queue"]),
    ("shifted-window-start-plus-1", S, "lo = hi // 2\n", "lo = hi // 2 + 1\n",
     [f"{T_SOLVER}::test_shifted_average_matches_recomputation"]),
    ("shifted-window-start-minus-1", S, "lo = hi // 2\n", "lo = hi // 2 - 1\n",
     [f"{T_SOLVER}::test_shifted_average_matches_recomputation"]),
    ("shifted-window-unclamped", S, "np.maximum(hi // 2 * 2, 1)", "hi // 2 * 2",
     [f"{T_SOLVER}::test_shifted_average_matches_recomputation"]),
    ("fixed-point-row-plus-1", S, "p = t + int(", "p = t + 1 + int(",
     [f"{T_SOLVER}::test_steps_stop_at_the_queues_fixed_point"]),
    ("rebuild-through-p-only", S, "max(p + 1, 2)", "max(p, 2)",
     [f"{T_SOLVER}::test_a_block_at_the_fixed_point_rebuilds_two_rows"]),
    ("drift-residual-sign", S, "- 0.5 * np.vecdot(D, D)", "+ 0.5 * np.vecdot(D, D)",
     [f"{T_SOLVER}::test_drift_residual_of_a_step_at_a_block_edge",
      f"{T_SOLVER}::test_drift_residual_of_a_false_fixed_point"]),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def run_tests(where: Path, tests: list[str]) -> tuple[int, float]:
    """pytest's exit code on ``tests`` in the copy ``where``, and its time.
    The copy's pyproject puts its own src/ first on sys.path."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=where, capture_output=True, text=True)
    return proc.returncode, time.perf_counter() - start


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"error: no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    for name, module, old, _, _ in chosen:
        count = (ROOT / "src" / "driftopt" / module).read_text().count(old)
        if count != 1:
            print(f"error: {name}: {old!r} occurs {count} times in {module}", file=sys.stderr)
            return 2
    survived = 0
    with tempfile.TemporaryDirectory(prefix="driftopt-mutants-") as tmp:
        where = Path(tmp)
        copy_tree(where)
        union = sorted({t for m in chosen for t in m[4]})
        code, seconds = run_tests(where, union)
        print(f"{'unmutated':32} {'passed' if code == 0 else f'FAILED (pytest exit {code})':10}"
              f" {seconds:6.1f} s")
        if code != 0:
            return 2
        for name, module, old, new, tests in chosen:
            path = where / "src" / "driftopt" / module
            original = path.read_text()
            path.write_text(original.replace(old, new))
            try:
                code, seconds = run_tests(where, tests)
            finally:
                path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            survived += code == 0
            print(f"{name:32} {verdict:10} {seconds:6.1f} s")
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
