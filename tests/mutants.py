"""Mutation check for the DPP kernel and its kept queue blocks, the
oracles, the diagnostics, the reference, the checks of a program, a queue,
an iteration count and a trace's t, the trace's layout, and the CLI's exit
codes.

    python tests/mutants.py [NAME ...]

Run from the root of a checkout.  Each mutant below is one text edit to a
module of ``src/driftopt`` whose original text must occur there exactly
once, with the tests that must kill it.  For each mutant (all, or the ones
named), the script copies ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml`` to a temporary directory, applies the edit and runs its
tests there in one pytest process, one mutant at a time.  A run whose
tests fail (pytest exit 1) kills the mutant; one that exits with any
other code (tests not collected, a usage error, an interrupt) is an
error, not a kill.  The unmutated copy first runs the union of the tests,
which must pass.  It prints each mutant as killed, survived or errored,
with its time, and exits 2 if one errored, else 1 if one survived.

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

S, D, O, R, C = "solver.py", "diagnostics.py", "oracles.py", "reference.py", "core.py"
T_SOLVER, T_DIAG = "tests/test_solver.py", "tests/test_diagnostics.py"
T_CORE = "tests/test_core.py"
T_ORACLES, T_ERRORS = "tests/test_oracles.py", "tests/test_cli_errors.py"
T_CLI = "tests/test_cli.py"

# (name, module, original text, mutated text, tests that must kill it)
MUTANTS = [
    ("warn-at-the-threshold", S, "V < floor * (1 - 1e-12)", "V <= floor * (1 - 1e-12)",
     [f"{T_SOLVER}::test_warns_below_guarantee_threshold"]),
    ("dual-value-gate-strict", D, "V >= gamma / 2.0", "V > gamma / 2.0",
     [f"{T_DIAG}::test_audit_gates_on_preconditions"]),
    ("dual-gap-gate-strict", D, "V >= gamma and", "V > gamma and",
     [f"{T_DIAG}::test_audit_gates_on_preconditions"]),
    ("objective-tolerance-sign", D, "1e-9 * (1.0 + rhs_max)", "1e-9 * (1.0 - rhs_max)",
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
    ("fixed-point-compares-values", S, "chunk[-1].tobytes() == chunk[-2].tobytes()",
     "np.array_equal(chunk[-1], chunk[-2])",
     [f"{T_ORACLES}::test_a_queue_that_changes_only_the_sign_of_a_zero_is_stepped_on"]),
    ("num-fold-at-the-threshold", O, "s < {value(s_star)}", "s <= {value(s_star)}",
     [f"{T_ORACLES}::test_num_cap_fold_is_exact_at_its_edges"]),
    ("cap-threshold-walk-strict", O, "while cV / (below := math.nextafter(s, 0.0)) <= xmax:",
     "while cV / (below := math.nextafter(s, 0.0)) < xmax:",
     [f"{T_ORACLES}::test_num_cap_fold_is_exact_at_its_edges"]),
    # differs only at y = -0.0, which q + (load - b) never is (load - b is
    # never -0.0, as every b is positive); only the test that a generated
    # source compares with < and > alone tells it
    ("num-clamp-at-zero", O, 'f"q{k} = 0.0 if y < 0.0 else y"',
     'f"q{k} = 0.0 if y <= 0.0 else y"',
     [f"{T_ORACLES}::test_the_source_given_to_exec_stays_arithmetic"]),
    ("qp-clamp-at-zero", O, "y{k} < 0.0", "y{k} <= 0.0",
     [f"{T_ORACLES}::test_a_queue_that_changes_only_the_sign_of_a_zero_is_stepped_on"]),
    ("num-size-gate-inclusive", O, "A.sum() > _MAX_GENERATED_ONES",
     "A.sum() >= _MAX_GENERATED_ONES",
     [f"{T_ORACLES}::test_num_oracle_above_the_size_bound_steps_with_numpy"]),
    ("qp-size-gate-inclusive", O, "self.M.size > _MAX_GENERATED_ENTRIES",
     "self.M.size >= _MAX_GENERATED_ENTRIES",
     [f"{T_ORACLES}::test_qp_oracle_above_the_size_bound_steps_with_numpy"]),
    # each constant named one slot on, so the last name is bound to nothing
    ("constant-name-one-slot-off", O, 'f"v{len(constants) - 1}"', 'f"v{len(constants)}"',
     [f"{T_ORACLES}::test_the_source_given_to_exec_stays_arithmetic"]),
    ("constants-bound-in-reverse", O, "tuple(body)), *constants)",
     "tuple(body)), *constants[::-1])",
     [f"{T_ORACLES}::test_generated_num_steps_are_the_numpy_row_update_on_the_builtins",
      f"{T_ORACLES}::test_generated_qp_steps_on_qp_6_2"]),
    ("objective-applies-past-overflow", D, '("objective_bound", bool(np.isfinite(rhs).any()),',
     '("objective_bound", True,',
     [f"{T_ERRORS}::test_audit_whose_queue_norm_overflows"]),
    ("objective-applies-if-all-finite", D, "bool(np.isfinite(rhs).any())",
     "bool(np.isfinite(rhs).all())",
     [f"{T_DIAG}::test_objective_tolerance_reads_only_the_samples_where_its_rhs_is_finite"]),
    ("objective-applies-if-q0-finite", D, "bool(np.isfinite(rhs).any())",
     "math.isfinite(q0_norm2)",
     [f"{T_ERRORS}::test_audit_whose_objective_rhs_overflows_at_every_sample"]),
    ("objective-tolerance-all-samples", D, "np.abs(rhs[np.isfinite(rhs)]).max(initial=0.0)",
     "np.abs(rhs).max(initial=0.0)",
     [f"{T_DIAG}::test_objective_tolerance_reads_only_the_samples_where_its_rhs_is_finite"]),
    ("kkt-finite-check-dropped", R, "if not np.isfinite([*x, *lam, f_star]).all():",
     "if False:",
     [f"{T_ERRORS}::test_kkt_candidate_whose_objective_is_nan_is_refused"]),
    # differs only where a later column is -0.0 and the row's max so far is
    # 0.0: np.maximum returns its second argument on a tie of zeros
    ("violation-later-clamp-dropped", D,
     "np.maximum(violation, np.maximum(g, 0.0), out=violation)",
     "np.maximum(violation, g, out=violation)",
     [f"{T_DIAG}::test_violation_is_bitwise_the_reduction_along_each_row"]),
    ("queue-check-refuses-zero", C, "np.any(arr < 0)", "np.any(arr <= 0)",
     [f"{T_CORE}::test_queue_state_is_a_read_only_copy_that_admits_zeros"]),
    ("alpha-finite-check-dropped", C, "if not np.isfinite(self.alpha):", "if False:",
     [f"{T_ERRORS}::test_alpha_that_overflows_exits_2_at_load"]),
    ("trace-t-from-zero", C, "np.all((t >= 1)", "np.all((t >= 0)",
     [f"{T_CORE}::test_trace_requires_increasing_t"]),
    # an int64 2**53 + 1 converts to the double 2.0**53, so only an int t tells
    ("trace-t-bound-as-float", C, "t > 2**53", "t > 2.0**53",
     [f"{T_CORE}::test_trace_requires_increasing_t"]),
    ("iters-bound-dropped", C, "if iters > 2**53:", "if False:",
     [f"{T_ERRORS}::test_solve_past_2_53_iterations_exits_2_before_the_first_step"]),
    ("trace-t-bound-dropped", C, "if np.any(t > 2**53):", "if False:",
     [f"{T_ERRORS}::test_trace_reader_rejects_bad_cells"]),
    ("memory-error-unmapped", "cli.py", "(OSError, ValueError, UserWarning, MemoryError)",
     "(OSError, ValueError, UserWarning)",
     [f"{T_ERRORS}::test_solve_with_a_schedule_too_large_for_memory_exits_2",
      f"{T_ERRORS}::test_solve_with_a_schedule_too_large_for_memory_exits_2_in_a_fresh_process"]),
    # audit would still refuse the column, as its trace checks t; fit would not
    ("reader-t-check-dropped", "cli.py", """_check_t(cols["t"], "trace CSV column 't'")""",
     "None", [f"{T_ERRORS}::test_trace_reader_rejects_bad_cells"]),
    ("dual-columns-read-swapped", C,
     'lambda_dist=cols.get("lambda_dist"), dual_gap=cols.get("dual_gap")',
     'lambda_dist=cols.get("dual_gap"), dual_gap=cols.get("lambda_dist")',
     [f"{T_CLI}::test_trace_csv_round_trips_bitwise"]),
    ("objective-error-adds-f-star", S, "out.f_xbar[new] - f_star", "out.f_xbar[new] + f_star",
     [f"{T_CLI}::test_csv_bytes_match_the_csv_module_with_reference"]),
    ("queue-key-drops-V", S, "key, k = (V, Q[0].tobytes())", "key, k = (None, Q[0].tobytes())",
     [f"{T_SOLVER}::test_another_key_misses_the_queue_cache"]),
    ("queue-key-on-row-1", S, "key, k = (V, Q[0].tobytes())", "key, k = (V, Q[1].tobytes())",
     [f"{T_SOLVER}::test_kept_rows_fill_a_block_as_its_steps_do"]),
    # a p >= k reads as None in the recorder, so only the block's own p tells
    ("queue-held-p-past-the-block", S, "return p if p is not None and p < k else None",
     "return p", [f"{T_SOLVER}::test_kept_rows_fill_a_block_as_its_steps_do"]),
    ("queue-bytes-unbounded", S,
     "if sum(r.nbytes for _, r in kept.values()) + n * Q[0].nbytes <= _CACHED_BYTES:",
     "if True:",
     [f"{T_SOLVER}::test_a_queue_with_no_fixed_point_keeps_at_most_the_byte_bound"]),
    ("queue-shorter-block-served", S, "if p is not None or len(rows) >= k:",
     "if p is not None or len(rows):",
     [f"{T_SOLVER}::test_kept_rows_fill_a_block_as_its_steps_do"]),
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
    survived = errored = 0
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
            errored += code not in (0, 1)
            print(f"{name:32} {verdict:10} {seconds:6.1f} s")
    print(f"{len(chosen) - survived - errored} of {len(chosen)} killed, {errored} errored")
    return 2 if errored else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
