import math

import numpy as np
import pytest

from driftopt import (IterateTrace, audit_bounds, audit_passed, builtin,
                      fit_geometric, fit_power_decay, max_violation, run)

QP_V = 4.0 / 0.34
MAX = 1.7976931348623157e308


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
    assert np.all(tr.f_xbar - b.reference.f_star == 0)
    assert np.all(max_violation(tr.g_xbar) <= 1e-12)


@pytest.mark.parametrize("m", range(1, 21))
def test_violation_is_bitwise_the_reduction_along_each_row(m):
    # the violation is reduced column by column; it must equal the row-wise
    # max_k max(g_k, 0) bit for bit on zeros of both signs, infinities,
    # subnormals and the largest doubles, and a row with a NaN is NaN
    rng = np.random.default_rng(m)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                        1e308, -1e308, MAX, -MAX])
    for rows in (0, 1, 2, 7, 10_001):
        shape = (rows, m)
        ordinary = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 308, shape)
        for g in (rng.choice(special, shape), ordinary,
                  np.where(rng.random(shape) < 0.5, rng.choice(special, shape), ordinary)):
            want = np.maximum(g, 0.0).max(axis=1)
            assert max_violation(g).tobytes() == want.tobytes()
            g[rng.random(rows) < 0.1, rng.integers(0, m)] = np.nan
            viol = max_violation(g)
            assert np.array_equal(np.isnan(viol), np.isnan(g).any(axis=1))
            finite = ~np.isnan(viol)
            assert viol[finite].tobytes() == np.maximum(g[finite], 0.0).max(axis=1).tobytes()


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


def test_fit_geometric_far_past_the_csv_bound_raises_without_warning():
    # the fits take any t, also t ~ 1e300 that no trace CSV holds: (t - t_lo)^2
    # overflows polyfit's column scale and the regression is rank deficient;
    # neither numpy warning escapes (the tests turn warnings into errors)
    ts = 1e300 * np.arange(1, 31)
    with pytest.raises(ValueError, match=r"^geometric fit produced ratio 1 outside \(0, 1\)$"):
        fit_geometric(ts, 1.0 / np.arange(1, 31))


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
    # each gate opens at its edge, V = gamma and V = gamma / 2, and is shut
    # one float below it
    dual_side = ("dual_gap_bound", "multiplier_distance_monotone", "dual_value_monotone")
    for V, applicable in ((9.0, (True, True, True)), (math.nextafter(9.0, 0), (False, False, True)),
                          (4.5, (False, False, True)), (math.nextafter(4.5, 0), (False, False, False))):
        tr = synthetic_trace(
            ts, f_vals=np.full(len(ts), b.reference.f_star - 1.0),
            g_vals=[np.zeros(2)] * len(ts), qnorms=np.zeros(len(ts)),
            V=V, lambda_dist=1.0 / ts, dual_gap=1.0 / ts)
        report = audit_bounds(tr, b.reference, b.program, np.zeros(2), gamma=9.0,
                              oracle=b.oracle)
        assert tuple(e["applicable"] for e in report[3:]) == applicable, V
        assert [e["bound"] for e in report[3:]] == list(dual_side)


def test_objective_tolerance_grows_with_the_rhs_from_a_nonzero_queue():
    # from Q(0) = (2, 2) at the default V the objective's rhs f* + ||Q(0)||^2
    # / (2 V t) peaks at 8.34 (t = 1), so its tolerance is 1e-9 * 9.34: one
    # sample 5e-9 over its rhs passes and one 1e-8 over fails
    b = builtin("qp_6_2")
    q0 = np.array([2.0, 2.0])
    ts = np.arange(1, 30)
    rhs = b.reference.f_star + 8.0 / (2.0 * QP_V * ts.astype(float))
    for over, passed in ((5e-9, True), (1e-8, False)):
        f = rhs - 1.0
        f[10] = rhs[10] + over
        tr = synthetic_trace(ts, f_vals=f, g_vals=[np.zeros(2)] * len(ts),
                             qnorms=np.zeros(len(ts)), V=QP_V)
        entry = audit_bounds(tr, b.reference, b.program, q0, gamma=9.0, oracle=b.oracle)[0]
        assert entry["bound"] == "objective_bound"
        assert entry["worst_margin"] == pytest.approx(over, rel=1e-3)
        assert entry["pass"] is passed, over


def test_objective_tolerance_reads_only_the_samples_where_its_rhs_is_finite():
    # from ||Q(0)||^2 = 1e308 at V = 0.1 the rhs f* + ||Q(0)||^2 / (2 V t)
    # overflows at t = 1 and 2 and peaks at 1.67e308 from t = 3, so its
    # tolerance is 1.67e299: a later sample 1e299 over its rhs passes and
    # one 1e300 over fails, where an inf tolerance would pass anything
    b = builtin("qp_6_2")
    q0 = np.array([1e154, 0.0])
    ts = np.arange(1, 30)
    with np.errstate(over="ignore"):
        rhs = b.reference.f_star + 1e308 / (2.0 * 0.1 * ts.astype(float))
    assert np.isinf(rhs[:2]).all() and np.isfinite(rhs[2:]).all()
    for over, passed in ((1e299, True), (1e300, False)):
        f = np.where(np.isfinite(rhs), rhs, 0.0)
        f[10] = rhs[10] + over
        tr = synthetic_trace(ts, f_vals=f, g_vals=[np.zeros(2)] * len(ts),
                             qnorms=np.zeros(len(ts)), V=0.1)
        entry = audit_bounds(tr, b.reference, b.program, q0, gamma=9.0, oracle=b.oracle)[0]
        assert entry["bound"] == "objective_bound" and entry["applicable"]
        assert entry["worst_margin"] == pytest.approx(over, rel=1e-3)
        assert entry["pass"] is passed, over


def test_audit_on_real_run():
    b = builtin("qp_6_2")
    q0 = np.zeros(2)
    tr = run(b.program, b.oracle, V=QP_V, q0=q0, iters=3000, sample="log",
             reference=b.reference)
    report = audit_bounds(tr, b.reference, b.program, q0, gamma=9.0,
                          oracle=b.oracle)
    assert audit_passed(report)


def test_audit_requires_reference():
    b = builtin("qp_6_2")
    q0 = np.zeros(2)
    tr = run(b.program, b.oracle, V=QP_V, q0=q0, iters=10, reference=b.reference)
    with pytest.raises(ValueError):
        audit_bounds(tr, None, b.program, q0, gamma=9.0, oracle=b.oracle)


def test_report_is_json_serializable():
    import json
    b = builtin("qp_6_2")
    q0 = np.zeros(2)
    tr = run(b.program, b.oracle, V=QP_V, q0=q0, iters=100, sample="log",
             reference=b.reference)
    report = audit_bounds(tr, b.reference, b.program, q0, gamma=9.0,
                          oracle=b.oracle)
    text = json.dumps(report)
    assert "objective_bound" in text
    assert [e["bound"] for e in report] == [
        "objective_bound", "constraint_bound", "queue_bound", "dual_gap_bound",
        "multiplier_distance_monotone", "dual_value_monotone"]
