import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from driftopt import (VARIANTS, InnerSolveError, ProjectedGradientOracle, SolverConfig,
                      builtin, choose_V, run)
from driftopt.cli import main
from driftopt.problems import BUILTIN_TAGS

QP_V = 4.0 / 0.34

# Sampled traces recorded from the pre-rewrite run() (commit 8d7d459): every
# builtin x variant at its default V, plus dual subgradient with c != 1/V
# from nonzero queues and dpp_shifted at V = 422 from Q(0) = 3.  2000
# iterations, linear sampling with stride 97.
GOLDEN = json.loads(Path(__file__).with_name("golden_traces.json").read_text())
GOLDEN_COLUMNS = ("f_xbar", "g_xbar", "qnorm", "lambda_dist", "dual_gap",
                  "xbar", "queue")


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(V=0.0, q0=np.zeros(1), iters=10)
    with pytest.raises(ValueError):
        SolverConfig(V=1.0, q0=np.zeros(1), iters=0)
    with pytest.raises(ValueError):
        SolverConfig(V=1.0, q0=np.array([-1.0]), iters=10)
    with pytest.raises(ValueError):
        SolverConfig(V=1.0, q0=np.zeros(1), iters=10, variant="bogus")


@pytest.mark.parametrize("field,value", [
    ("V", np.nan), ("V", np.inf), ("q0", [1.0, np.nan]), ("q0", [np.inf, 0.0]),
], ids=str)
def test_config_rejects_bad_parameters(field, value):
    kw = dict(V=1.0, q0=np.zeros(2), iters=10)
    kw[field] = value
    with pytest.raises(ValueError):
        SolverConfig(**kw)


def test_choose_V():
    b = builtin("qp_6_2")
    assert choose_V(b.program) == pytest.approx(4.0 / 0.34)
    n = builtin("num_6_1")
    assert choose_V(n.program) == pytest.approx(3 * 3 / (2 / 121))  # 544.5


def test_first_iteration_from_zero_queue():
    # from Q(0)=0 the rate allocation starts at the caps
    b = builtin("num_6_1")
    with pytest.warns(UserWarning):
        cfg = SolverConfig(V=363.0, q0=np.zeros(3), iters=1,
                           sampling="linear", stride=1)
        tr = run(b.program, b.oracle, cfg)
    assert list(tr.t) == [1]
    assert np.allclose(tr.xbar[0], [11.0, 11.0, 11.0])
    assert np.allclose(tr.queue[0], [23.0, 14.0, 14.0])


def test_zero_constraint_values_fix_the_queue():
    b = builtin("qp_6_2")
    lam = b.reference.lambda_star
    q0 = QP_V * lam  # stationary point of the queue recursion
    cfg = SolverConfig(V=QP_V, q0=q0, iters=20, sampling="linear", stride=1)
    tr = run(b.program, b.oracle, cfg, reference=b.reference)
    assert np.allclose(tr.queue, q0, atol=1e-8)


def test_dpp_equals_dual_subgradient(tmp_path, capsys):
    # dual subgradient with step c = 1/V from lam(0) = Q(0)/V is DPP at V:
    # the CLI runs both through the same loop and writes the same trace
    outputs = {}
    for algorithm in ("dpp", "dual-subgradient"):
        out = tmp_path / f"{algorithm}.csv"
        assert main(["solve", "--builtin", "qp_6_2", "--algorithm", algorithm,
                     "--q0", "2,5", "--iters", "500", "--sample", "linear",
                     "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary.pop("algorithm") == algorithm
        outputs[algorithm] = (out.read_bytes(), summary)
    assert outputs["dpp"] == outputs["dual-subgradient"]


def test_standard_average_matches_recomputation():
    b = builtin("qp_6_2")
    cfg = SolverConfig(V=QP_V, q0=np.zeros(2), iters=100,
                       sampling="linear", stride=1)
    tr = run(b.program, b.oracle, cfg)
    # x(0) is recoverable from xbar(1)
    history = [tr.xbar[0]] + list(tr.x[:-1])
    for t, xbar in zip(tr.t, tr.xbar):
        assert np.abs(xbar - np.mean(history[:t], axis=0)).max() <= 1e-10


def test_shifted_average_matches_recomputation():
    b = builtin("qp_6_2")
    cfg = SolverConfig(V=QP_V, q0=np.zeros(2), iters=101,
                       variant="dpp_shifted", sampling="linear", stride=1)
    tr = run(b.program, b.oracle, cfg)
    # raw iterate history from an identical standard run
    base = SolverConfig(V=QP_V, q0=np.zeros(2), iters=101,
                        sampling="linear", stride=1)
    tb = run(b.program, b.oracle, base)
    history = [tb.xbar[0]] + list(tb.x[:-1])
    for t, xbar in zip(tr.t, tr.xbar):
        even = t if t % 2 == 0 else t - 1
        if even == 0:
            expect = history[0]
        else:
            half = even // 2
            expect = np.mean(history[half:even], axis=0)
        assert np.abs(xbar - expect).max() <= 1e-10


def test_objective_and_constraint_bounds_hold():
    # f(xbar) <= f* + ||Q0||^2/(2Vt) and
    # g_k(xbar) <= (sqrt(||Q0||^2 + V^2 ||lam*||^2) + V ||lam*||) / t
    b = builtin("qp_6_2")
    for q0 in (np.zeros(2), np.array([10.0, 10.0])):
        cfg = SolverConfig(V=QP_V, q0=q0, iters=2000, sampling="log")
        tr = run(b.program, b.oracle, cfg, reference=b.reference)
        lam_norm = np.linalg.norm(b.reference.lambda_star)
        B = np.sqrt(q0 @ q0 + QP_V ** 2 * lam_norm ** 2) + QP_V * lam_norm
        assert np.all(tr.f_xbar <= b.reference.f_star
                      + (q0 @ q0) / (2 * QP_V * tr.t) + 1e-8)
        assert np.all(tr.g_xbar.max(axis=1) <= B / tr.t + 1e-8)
        assert np.all(tr.qnorm <= B + 1e-8)


def test_per_iteration_drift_plus_penalty_bound():
    # drift(t) + V f(x(t)) <= V f* at every step when V is above threshold
    b = builtin("qp_6_2")
    cfg = SolverConfig(V=QP_V, q0=np.zeros(2), iters=300,
                       sampling="linear", stride=1)
    tr = run(b.program, b.oracle, cfg)
    # row i holds x(t) and Q(t) for t = i+1; the drift of step t needs
    # Q(t+1), i.e. the next row's queue.  L(Q) = ||Q||^2 / 2.
    for i in range(len(tr) - 1):
        q, q_next = tr.queue[i], tr.queue[i + 1]
        drift = 0.5 * (q_next @ q_next) - 0.5 * (q @ q)
        assert drift + QP_V * b.program.f(tr.x[i]) <= QP_V * b.reference.f_star + 1e-8


def test_warns_below_guarantee_threshold():
    b = builtin("num_6_1")
    with pytest.warns(UserWarning, match="below the guarantee threshold"):
        cfg = SolverConfig(V=363.0, q0=np.zeros(3), iters=5)
        run(b.program, b.oracle, cfg)


def test_queue_dimension_mismatch():
    b = builtin("qp_6_2")
    cfg = SolverConfig(V=QP_V, q0=np.zeros(3), iters=5)
    with pytest.raises(ValueError):
        run(b.program, b.oracle, cfg)


def test_trace_records_dual_quantities_with_reference():
    b = builtin("qp_6_2")
    cfg = SolverConfig(V=QP_V, q0=np.zeros(2), iters=50,
                       sampling="linear", stride=1)
    tr = run(b.program, b.oracle, cfg, reference=b.reference)
    assert tr.lambda_dist is not None and np.all(tr.lambda_dist >= 0)
    assert tr.dual_gap is not None and np.all(tr.dual_gap >= -1e-9)
    assert tr.dual_gap[-1] < tr.dual_gap[0]


@pytest.mark.parametrize("q0", [0.0, 3.0])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tag", BUILTIN_TAGS)
def test_recorded_norms_are_numpy_norms(tag, variant, q0):
    # qnorm reuses the drift identity's Q.Q and lambda_dist is sqrt(d.d);
    # np.linalg.norm of a 1-D vector is the same sqrt of the same dot
    b = builtin(tag)
    V = choose_V(b.program)
    cfg = SolverConfig(V=V, q0=np.full(b.program.m, q0), iters=500,
                       variant=variant, sampling="linear")
    tr = run(b.program, b.oracle, cfg, reference=b.reference)
    lam_star = b.reference.lambda_star
    for i in range(len(tr)):
        assert tr.qnorm[i] == np.linalg.norm(tr.queue[i]), i
        assert tr.lambda_dist[i] == np.linalg.norm(tr.queue[i] / V - lam_star), i


@pytest.mark.parametrize(
    "case", GOLDEN,
    ids=[f"{c['tag']}-{c['variant']}-V{c['V']:g}-c{c['step_c']}" for c in GOLDEN])
def test_golden_trace(case):
    b = builtin(case["tag"])
    q0 = np.broadcast_to(np.asarray(case["q0"], dtype=float), (b.program.m,))
    variant, V = case["variant"], case["V"]
    if variant == "dual_subgradient":
        # step c (default 1/V) from Q(0): DPP at V' = 1/c
        variant, V = "dpp", 1.0 / (case["step_c"] or 1.0 / V)
    cfg = SolverConfig(V=V, q0=q0, iters=2000, variant=variant,
                       sampling="linear", stride=97)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # V = 422 is below m beta^2/alpha
        tr = run(b.program, b.oracle, cfg, reference=b.reference)
    assert tr.t.tolist() == case["t"]
    # The NUM closed form and the DPP loop do the recording's arithmetic in
    # the recording's order, so those traces are bitwise equal.  The QP
    # oracle is now an affine map and dual subgradient runs as DPP at
    # V = 1/c, which moves the last bits.
    exact = b.kind == "num" and case["variant"] != "dual_subgradient"
    for name in GOLDEN_COLUMNS:
        new = getattr(tr, name)
        old = np.array(case[name], dtype=float)
        if exact:
            assert np.array_equal(new, old), name
        else:
            scale = max(1.0, np.abs(old).max())
            assert np.abs(new - old).max() <= 1e-12 * scale, name
    if exact:
        assert tr.max_drift_residual == case["max_drift_residual"]
    else:
        # a rounding-level residual of terms of size ||Q||^2 / 2
        scale = 1.0 + 0.5 * max(case["qnorm"]) ** 2
        assert abs(tr.max_drift_residual - case["max_drift_residual"]) <= 1e-12 * scale


class CountingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def argmin(self, q, V):
        self.calls += 1
        return self.inner.argmin(q, V)


def test_shifted_run_makes_one_oracle_call_per_iteration():
    b = builtin("qp_6_2")
    iters = 101
    cfg = SolverConfig(V=QP_V, q0=np.zeros(2), iters=iters,
                       variant="dpp_shifted", sampling="linear", stride=1)
    traces = []
    for inner in (b.oracle, ProjectedGradientOracle(b.program, tol=1e-12)):
        oracle = CountingOracle(inner)
        traces.append(run(b.program, oracle, cfg, reference=b.reference))
        assert oracle.calls == 1 + iters + 1  # x(lambda*), then x(0..iters)
    closed, generic = traces
    assert np.abs(closed.xbar - generic.xbar).max() <= 1e-8
    assert np.abs(closed.queue - generic.queue).max() <= 1e-8


class FailingOracle(CountingOracle):
    def __init__(self, inner, succeed):
        super().__init__(inner)
        self.succeed = succeed

    def argmin(self, q, V):
        if self.calls == self.succeed:
            raise InnerSolveError("inner solve failed")
        return super().argmin(q, V)


def test_inner_failure_carries_partial_trace():
    b = builtin("qp_6_2")
    cfg = SolverConfig(V=QP_V, q0=np.array([3.0, 1.0]), iters=50,
                       sampling="linear", stride=1)
    full = run(b.program, b.oracle, cfg, reference=b.reference)
    # x(lambda*) and x(0..20) succeed; x(21) fails
    with pytest.raises(InnerSolveError) as info:
        run(b.program, FailingOracle(b.oracle, succeed=22), cfg,
            reference=b.reference)
    part = info.value.partial_trace
    assert part.t.tolist() == list(range(1, 21))
    for name in GOLDEN_COLUMNS + ("x",):
        assert np.array_equal(getattr(part, name), getattr(full, name)[:20]), name
    assert part.max_drift_residual <= full.max_drift_residual


class OverflowingOracle(CountingOracle):
    """Returns +inf coordinates from call number ``finite`` on."""

    def __init__(self, inner, finite):
        super().__init__(inner)
        self.finite = finite

    def argmin(self, q, V):
        x = super().argmin(q, V)
        return np.full_like(x, np.inf) if self.calls > self.finite else x


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_sample_carries_partial_trace():
    b = builtin("qp_6_2")
    cfg = SolverConfig(V=QP_V, q0=np.array([3.0, 1.0]), iters=50,
                       sampling="linear", stride=1)
    full = run(b.program, b.oracle, cfg, reference=b.reference)
    # x(lambda*) and x(0..20) are finite; x(21) is not
    with pytest.raises(FloatingPointError, match="t = 21") as info:
        run(b.program, OverflowingOracle(b.oracle, finite=22), cfg,
            reference=b.reference)
    part = info.value.partial_trace
    assert part.t.tolist() == list(range(1, 21))
    for name in GOLDEN_COLUMNS + ("x",):
        assert np.array_equal(getattr(part, name), getattr(full, name)[:20]), name
