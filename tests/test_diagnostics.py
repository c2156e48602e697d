import numpy as np
import pytest

from driftopt import (IterateTrace, SolverConfig, audit_bounds, audit_passed,
                      builtin, error_series, fit_geometric, fit_power_decay,
                      run)

QP_V = 4.0 / 0.34


def synthetic_trace(ts, f_vals, g_vals, qnorms, V=1.0, lambda_dist=None,
                    dual_gap=None):
    return IterateTrace(
        t=ts, f_xbar=np.asarray(f_vals, dtype=float),
        g_xbar=np.array([np.atleast_1d(g) for g in g_vals], dtype=float),
        qnorm=np.asarray(qnorms, dtype=float),
        lambda_dist=None if lambda_dist is None else np.asarray(lambda_dist, dtype=float),
        dual_gap=None if dual_gap is None else np.asarray(dual_gap, dtype=float),
        V=V)


def test_error_series_zero_at_optimum():
    b = builtin("qp_6_2")
    ts = np.arange(1, 20)
    tr = IterateTrace(t=ts, f_xbar=np.full(len(ts), b.reference.f_star),
                      g_xbar=np.tile(b.program.constraints(b.reference.x_star), (len(ts), 1)),
                      qnorm=np.zeros(len(ts)))
    obj, viol = error_series(tr.f_xbar, tr.g_xbar, b.reference.f_star)
    assert np.all(obj == 0)
    assert np.all(viol <= 1e-12)


def test_fit_power_exact():
    ts = np.unique(np.round(np.logspace(0, 5, 300))).astype(int)
    fit = fit_power_decay(ts, 5.0 / ts)
    assert fit.model == "power"
    assert fit.p == pytest.approx(1.0, abs=1e-6)
    assert fit.C == pytest.approx(5.0 / fit.t_lo, rel=1e-6)
    assert fit.quality == pytest.approx(1.0, abs=1e-9)

    fit = fit_power_decay(ts, ts ** -1.5)
    assert fit.p == pytest.approx(1.5, abs=1e-6)


def test_fit_geometric_exact():
    ts = np.arange(1, 500)
    fit = fit_geometric(ts, (1.0 / ts) * 0.99 ** ts)
    assert fit.model == "geometric"
    assert fit.r == pytest.approx(0.99, abs=1e-6)
    assert fit.quality > 0.999


def test_fit_geometric_constant_is_at_the_window_start():
    # e(t) = (C/t) r^(t - t_lo): C is t * e(t) at the first fitted sample
    ts = np.arange(1, 500)
    fit = fit_geometric(ts, (1.0 / ts) * 0.99 ** ts)
    assert fit.t_lo > 1
    assert fit.C == pytest.approx(0.99 ** fit.t_lo, rel=1e-9)


def test_fit_window_selection():
    ts = np.unique(np.round(np.logspace(0, 4, 200))).astype(int)
    fit = fit_power_decay(ts, 1.0 / ts, window=(100, 10_000))
    assert fit.t_lo >= 100 and fit.t_hi <= 10_000
    # default window: last half of the log range
    fit = fit_power_decay(ts, 1.0 / ts)
    assert fit.t_lo >= 99


def test_fit_drops_zeros_and_needs_enough_samples():
    ts = np.arange(1, 30)
    errors = np.where(ts % 2 == 0, 1.0 / ts, 0.0)
    fit = fit_power_decay(ts, errors, window_fraction=1.0)
    assert fit.p == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        fit_power_decay(np.arange(1, 6), 1.0 / np.arange(1, 6))


def test_fit_geometric_rejects_growth():
    ts = np.arange(1, 200)
    with pytest.raises(ValueError):
        fit_geometric(ts, (1.0 / ts) * 1.01 ** ts)


def test_audit_accepts_compliant_synthetic_trace():
    # every bound satisfied with 10% slack must pass the audit
    b = builtin("qp_6_2")
    V = QP_V
    lam_norm = np.linalg.norm(b.reference.lambda_star)
    B = V * lam_norm * 2  # Q(0) = 0 form of the queue bound
    ts = np.arange(1, 200)
    tr = synthetic_trace(
        ts,
        f_vals=b.reference.f_star - 0.1 / ts,
        g_vals=[np.full(2, 0.9 * B / t) for t in ts],
        qnorms=np.full(len(ts), 0.9 * B),
        V=V,
        lambda_dist=lam_norm / ts,
        dual_gap=1.0 / ts)
    report = audit_bounds(tr, b.reference, b.program, np.zeros(2), gamma=9.0,
                          oracle=b.oracle)
    assert audit_passed(report)
    assert all(e["applicable"] for e in report)


def test_audit_flags_single_monotonicity_violation():
    b = builtin("qp_6_2")
    ts = np.arange(1, 50)
    dist = np.linspace(1.0, 0.1, len(ts))
    dist[30] = dist[29] + 1e-6  # one uptick
    tr = synthetic_trace(
        ts, f_vals=np.full(len(ts), b.reference.f_star - 1.0),
        g_vals=[np.zeros(2)] * len(ts), qnorms=np.zeros(len(ts)),
        V=QP_V, lambda_dist=dist, dual_gap=1.0 / ts)
    report = audit_bounds(tr, b.reference, b.program, np.zeros(2), gamma=9.0,
                          oracle=b.oracle)
    entry = next(e for e in report if e["bound"] == "multiplier_distance_monotone")
    assert entry["applicable"] and entry["pass"] is False


def test_audit_gates_on_preconditions():
    # V below gamma: the dual-side audits report not applicable
    b = builtin("qp_6_2")
    ts = np.arange(1, 30)
    tr = synthetic_trace(
        ts, f_vals=np.full(len(ts), b.reference.f_star - 1.0),
        g_vals=[np.zeros(2)] * len(ts), qnorms=np.zeros(len(ts)),
        V=1.0, lambda_dist=1.0 / ts, dual_gap=1.0 / ts)
    report = audit_bounds(tr, b.reference, b.program, np.zeros(2), gamma=9.0,
                          oracle=b.oracle)
    by_name = {e["bound"]: e for e in report}
    assert by_name["dual_gap_bound"]["applicable"] is False
    assert by_name["multiplier_distance_monotone"]["applicable"] is False
    # gamma/2 = 4.5 > 1: the dual-value monotonicity audit is gated too
    assert by_name["dual_value_monotone"]["applicable"] is False


def test_audit_on_real_run():
    b = builtin("qp_6_2")
    cfg = SolverConfig(V=QP_V, q0=np.zeros(2), iters=3000, sample="log")
    tr = run(b.program, b.oracle, cfg, reference=b.reference)
    report = audit_bounds(tr, b.reference, b.program, cfg.q0, gamma=9.0,
                          oracle=b.oracle)
    assert audit_passed(report)


def test_audit_requires_reference():
    b = builtin("qp_6_2")
    cfg = SolverConfig(V=QP_V, q0=np.zeros(2), iters=10)
    tr = run(b.program, b.oracle, cfg, reference=b.reference)
    with pytest.raises(ValueError):
        audit_bounds(tr, None, b.program, cfg.q0, gamma=9.0, oracle=b.oracle)


def test_report_is_json_serializable():
    import json
    b = builtin("qp_6_2")
    cfg = SolverConfig(V=QP_V, q0=np.zeros(2), iters=100, sample="log")
    tr = run(b.program, b.oracle, cfg, reference=b.reference)
    report = audit_bounds(tr, b.reference, b.program, cfg.q0, gamma=9.0,
                          oracle=b.oracle)
    text = json.dumps(report)
    assert "objective_bound" in text
