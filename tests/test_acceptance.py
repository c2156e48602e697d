"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line.  Long runs are shared through module-scoped
fixtures so the whole gate stays fast."""

import time
import warnings

import numpy as np
import pytest

from driftopt import (audit_bounds, audit_passed, builtin, fit_geometric,
                      fit_power_decay, general_dual_hessian, kkt_solve_num,
                      kkt_solve_qp, max_violation, num_dual_hessian, run,
                      theta_bound)
from generic_oracle import generic_oracle
from replay import replay

QP_V = 4.0 / 0.34
NUM_V = 363.0


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def num_run_1e5():
    b = builtin("num_6_1")
    t0 = time.perf_counter()
    tr = run(b.program, b.oracle, V=NUM_V, q0=np.zeros(3), iters=100_000, sample="log",
             reference=b.reference)
    return b, tr, time.perf_counter() - t0


@pytest.fixture(scope="module")
def qp_runs_1e5():
    b = builtin("qp_6_2")
    out = []
    for q0 in (np.zeros(2), np.array([10.0, 10.0])):
        t0 = time.perf_counter()
        tr = run(b.program, b.oracle, V=QP_V, q0=q0, iters=100_000, sample="log",
                 reference=b.reference)
        out.append((q0, tr, time.perf_counter() - t0))
    return b, out


def test_criterion_1_ground_truth():
    t0 = time.perf_counter()
    num = kkt_solve_num(builtin("num_6_1").program)
    t_num = time.perf_counter() - t0
    t0 = time.perf_counter()
    qp = kkt_solve_qp(builtin("qp_6_2").program)
    t_qp = time.perf_counter() - t0
    t0 = time.perf_counter()
    deg = kkt_solve_num(builtin("num_5_2_rank_deficient").program)
    t_deg = time.perf_counter() - t0

    # optimal value implied by the stated optimum (2, 3.2, 4.8)
    num_f = -(np.log(2.0) + 2 * np.log(3.2) + 3 * np.log(4.8))
    ok = (np.allclose(num.x_star, [2.0, 3.2, 4.8], atol=1e-3)
          and abs(num.f_star - num_f) < 1e-3
          and np.allclose(qp.x_star, [-1.0, -1.0], atol=1e-6)
          and abs(qp.f_star - 8.0) < 1e-6
          and np.allclose(deg.x_star, [0.8553, 2.1447, 1.1447, 5.8553], atol=1e-3)
          and np.allclose(deg.lambda_star, [0.46628, 0.17078, 0.70284, 0.0],
                          atol=1e-5)
          and max(t_num, t_qp, t_deg) < 1.0)
    report("criterion 1: ground-truth solutions", ok,
           f"times {t_num:.3f}/{t_qp:.3f}/{t_deg:.3f}s")


def test_criterion_2_objective_never_exceeds_optimum(num_run_1e5):
    b, tr, elapsed = num_run_1e5
    worst = float((tr.f_xbar - b.reference.f_star).max())
    ok = worst <= 1e-9 and elapsed < 10.0
    report("criterion 2: zero-queue objective non-violation", ok,
           f"worst margin {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_bound_audits(qp_runs_1e5):
    b, runs = qp_runs_1e5
    ok = True
    details = []
    for q0, tr, elapsed in runs:
        rep = audit_bounds(tr, b.reference, b.program, q0,
                           gamma=b.constant("gamma"), oracle=b.oracle)
        ok = ok and audit_passed(rep) and elapsed < 10.0
        details.append(f"q0={q0.tolist()} {elapsed:.2f}s")
    report("criterion 3: objective/constraint/queue bound audits", ok,
           "; ".join(details))


def test_criterion_4_power_rate(num_run_1e5, qp_runs_1e5):
    b_num, tr_num, _ = num_run_1e5
    b_qp, runs = qp_runs_1e5
    tr_qp = runs[0][1]
    ps = []
    for b, tr in ((b_num, tr_num), (b_qp, tr_qp)):
        ps.append(fit_power_decay(tr.t, max_violation(tr.g_xbar), window=(1e3, 1e5)).p)
    ok = all(0.85 <= p <= 1.15 for p in ps)
    report("criterion 4: O(1/t) constraint decay", ok,
           f"exponents {ps[0]:.4f}, {ps[1]:.4f}")


def test_criterion_5_geometric_rate():
    results = []
    ok = True
    for tag, V, iters, lo, hi in (("num_6_1", 422.0, 10_000, 0.995, 0.9995),
                                  ("qp_6_2", QP_V, 4_000, 0.985, 0.999)):
        b = builtin(tag)
        tr = run(b.program, b.oracle, V=V, q0=np.zeros(b.program.m), iters=iters,
                 variant="dpp_shifted", sample="log", reference=b.reference)
        obj = np.abs(tr.f_xbar - b.reference.f_star)
        geo = fit_geometric(tr.t, obj)
        pw = fit_power_decay(tr.t, obj)
        ok = ok and lo <= geo.r <= hi and geo.quality > pw.quality
        results.append(f"{tag} r={geo.r:.4f} q_geo={geo.quality:.3f} "
                       f"q_pow={pw.quality:.3f}")
    report("criterion 5: geometric decay of the shifted-average variant",
           ok, "; ".join(results))


def test_criterion_6_dual_gap_and_monotonicity():
    b = builtin("qp_6_2")
    gamma = b.constant("gamma_computed")  # 3 / 0.34
    V = max(QP_V, gamma)
    tr = run(b.program, b.oracle, V=V, q0=np.zeros(2), iters=10_000,
             sample="linear", reference=b.reference)
    lam_star = b.reference.lambda_star
    from driftopt import dual_value_and_gradient
    q_at_0, _ = dual_value_and_gradient(b.program, b.oracle, np.zeros(2))
    q_at_star, _ = dual_value_and_gradient(b.program, b.oracle, lam_star)
    theta = theta_bound(V, gamma, np.zeros(2), lam_star, q_at_0, q_at_star)
    gaps = tr.dual_gap
    worst_gap = float((gaps - theta / tr.t).max())
    worst_dist_step = float(np.diff(tr.lambda_dist).max())
    worst_q_step = float(np.diff(gaps).max())  # gap must not increase
    ok = worst_gap <= 1e-9 and worst_dist_step <= 1e-9 and worst_q_step <= 1e-9
    report("criterion 6: dual gap bound and per-step monotonicity", ok,
           f"gap margin {worst_gap:.2e}, dist step {worst_dist_step:.2e}, "
           f"gap step {worst_q_step:.2e}")


def test_criterion_7_drift_identity():
    # from Q(0) = 0 the raw residual; from random nonzero Q(0) the residual
    # relative to the size 1 + max ||Q||^2 / 2 of the identity's terms
    worst = 0.0
    rng = np.random.default_rng(42)
    for tag, V in (("num_6_1", NUM_V), ("qp_6_2", QP_V),
                   ("num_5_2_rank_deficient", 800.0)):
        b = builtin(tag)
        tr = run(b.program, b.oracle, V=V, q0=np.zeros(b.program.m), iters=10_000,
                 sample="log")
        worst = max(worst, tr.max_drift_residual)
        for _ in range(5):
            q0 = rng.uniform(0, 100, b.program.m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # NUM_V < m beta^2/alpha
                tr = run(b.program, b.oracle, V=V, q0=q0, iters=2_000, sample="log")
            scale = 1.0 + 0.5 * max(tr.qnorm.max(), np.linalg.norm(q0)) ** 2
            worst = max(worst, tr.max_drift_residual / scale)
    ok = worst <= 1e-9
    report("criterion 7: exact drift identity", ok, f"worst residual {worst:.2e}")


def test_criterion_8_rank_deficient_counterexample():
    b = builtin("num_5_2_rank_deficient")
    mu = np.array([1.0, 1.0, -1.0, -1.0])
    H = num_dual_hessian(b.program, b.reference.lambda_star)
    n = builtin("num_6_1")
    # the dual is strongly concave iff A has full row rank m (numerical
    # rank: singular values above 1e-10 times the largest)
    rank_deg, rank_full = (
        np.linalg.matrix_rank(A, tol=1e-10 * np.linalg.norm(A, 2))
        for A in (b.program.A, n.program.A))
    ok = (np.all(mu @ b.program.A == 0)
          and mu @ b.program.b == 0
          and np.linalg.norm(H @ mu) <= 1e-6
          and rank_deg < b.program.m
          and rank_full == n.program.m)
    report("criterion 8: rank-deficient dual counterexample", ok,
           f"||H mu|| = {np.linalg.norm(H @ mu):.2e}")


def test_criterion_9_oracle_equivalences():
    # (a) the dual subgradient method with step c is DPP at V = 1/c: the
    # dpp run matches an independent multiplier loop
    # lam <- max(lam + c g(x(lam)), 0) with x(lam) solving
    # 2P x = -(c_obj + A' lam).  The run keeps ||Q(t)||, not x(t) or Q(t):
    # those are replayed from its oracle, and their norms are the run's.
    b = builtin("qp_6_2")
    c, iters = 1.0 / QP_V, 10_000
    t2 = run(b.program, b.oracle, V=1.0 / c, q0=np.zeros(2), iters=iters,
             sample="linear")
    xs, queues = replay(b.oracle(1.0 / c), np.zeros(2), t2.t)
    same_run = np.array_equal(t2.qnorm, np.sqrt(np.vecdot(queues, queues)))
    P, c_obj, A, b_vec = (b.program.P, b.program.c, b.program.A,
                          b.program.b)
    lam = np.zeros(2)
    worst_x = worst_lam = 0.0
    for t in range(iters + 1):
        x = np.linalg.solve(2.0 * P, -(c_obj + A.T @ lam))
        if t >= 1:  # sample t holds x(t) and Q(t) = lam(t) / c
            worst_x = max(worst_x, np.abs(xs[t - 1] - x).max())
            worst_lam = max(worst_lam, np.abs(c * queues[t - 1] - lam).max())
        lam = np.maximum(lam + c * (A @ x - b_vec), 0.0)

    # (b) closed-form vs generic inner oracle on random queues
    rng = np.random.default_rng(7)
    worst_oracle = 0.0
    for tag, V in (("num_6_1", NUM_V), ("qp_6_2", QP_V),
                   ("num_5_2_rank_deficient", 800.0)):
        bb = builtin(tag)
        closed, gen = bb.oracle(V), generic_oracle(bb, tol=1e-10)(V)
        for _ in range(100):
            q = rng.uniform(0, 50, bb.program.m)
            diff = np.abs(closed.argmin(q) - gen.argmin(q)).max()
            worst_oracle = max(worst_oracle, diff)

    # (c) the two dual Hessian formulas agree
    worst_hess = 0.0
    for tag in ("num_6_1", "num_5_2_rank_deficient"):
        bb = builtin(tag)
        lam = bb.reference.lambda_star
        x = bb.reference.x_star
        H1 = num_dual_hessian(bb.program, lam)
        H2 = general_dual_hessian(bb.program.A,
                                  np.diag(bb.program.c / x ** 2))
        worst_hess = max(worst_hess, np.abs(H1 - H2).max())

    ok = same_run and worst_x <= 1e-12 and worst_lam <= 1e-12 \
        and worst_oracle <= 1e-6 and worst_hess <= 1e-8
    report("criterion 9: oracle equivalences", ok,
           f"iterates {worst_x:.1e}, oracles {worst_oracle:.1e}, "
           f"hessians {worst_hess:.1e}")


def test_criterion_10_rank_deficient_run_reaches_its_multiplier():
    # On num_5_2's rank-deficient face the reference reports the
    # least-norm multiplier, the vertex that lambda(t) = Q(t)/V reaches:
    # lambda_dist goes to rounding, and every bound, the two dual ones
    # included, is applicable and passes.  The dual subgradient method at
    # step c = 1/V is DPP at V = 1/c.
    b = builtin("num_5_2_rank_deficient")
    V, q0 = 800.0, np.zeros(4)
    details, ok = [], True
    for name, variant, V_run in (("dpp", "dpp", V), ("dpp-shifted", "dpp_shifted", V),
                                 ("dual-subgradient", "dpp", 1.0 / (1.0 / V))):
        tr = run(b.program, b.oracle, V=V_run, q0=q0, iters=100_000, variant=variant,
                 sample="log", reference=b.reference)
        rep = audit_bounds(tr, b.reference, b.program, q0, gamma=b.constant("gamma"),
                           oracle=b.oracle)
        ok = (ok and tr.lambda_dist[-1] <= 1e-12 and audit_passed(rep)
              and all(entry["applicable"] for entry in rep))
        details.append(f"{name} lambda_dist {tr.lambda_dist[-1]:.1e}")
    report("criterion 10: the rank-deficient run reaches its multiplier", ok,
           "; ".join(details))
