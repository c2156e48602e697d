import functools
import json
import math
import random
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import driftopt.cli
import driftopt.problems
import driftopt.solver
from driftopt import VARIANTS, DimensionError, builtin, choose_V, load_problem, run
from driftopt.cli import main
from driftopt.core import dual_value_and_gradient, sample_indices
from driftopt.problems import BUILTIN_TAGS
from driftopt.solver import _BLOCK, _CHUNK, _step_to_fixed_point
from generic_oracle import GenericProgram, generic_oracle
from replay import assert_bitwise_equal, count_steps, fixed_point, replay, step

QP_V = 4.0 / 0.34

# Sampled traces recorded from the pre-rewrite run() (commit 8d7d459): every
# builtin x variant at its default V, plus dual subgradient with c != 1/V
# from nonzero queues and dpp_shifted at V = 422 from Q(0) = 3.  2000
# iterations, linear sampling with stride 97.
GOLDEN = json.loads(Path(__file__).with_name("golden_traces.json").read_text())
GOLDEN_COLUMNS = ("f_xbar", "g_xbar", "qnorm", "lambda_dist", "dual_gap")


def run_qp(**kw):
    """run() on qp_6_2 with the parameters ``kw``, and an oracle that
    fails the test if the run gets as far as building it."""
    b = builtin("qp_6_2")
    return run(b.program, unbuildable_oracle, **kw)


def unbuildable_oracle(V):
    raise AssertionError("run built the oracle before it checked its parameters")


def test_config_validation():
    with pytest.raises(ValueError):
        run_qp(V=0.0, q0=np.zeros(1), iters=10)
    with pytest.raises(ValueError):
        run_qp(V=1.0, q0=np.zeros(1), iters=0)
    with pytest.raises(ValueError):
        run_qp(V=1.0, q0=np.array([-1.0]), iters=10)
    with pytest.raises(ValueError):
        run_qp(V=1.0, q0=np.zeros(1), iters=10, variant="bogus")
    with pytest.raises(ValueError, match="'linear:0'"):
        run_qp(V=1.0, q0=np.zeros(1), iters=10, sample="linear:0")


@pytest.mark.parametrize("field,value", [
    ("V", np.nan), ("V", np.inf), ("q0", [1.0, np.nan]), ("q0", [np.inf, 0.0]),
    ("variant", "dpp-shifted"), ("q0", [-5.0, 1.0]),
], ids=str)
def test_config_rejects_bad_parameters(field, value):
    # the CLI's spelling of a variant, and a negative queue, are refused
    # as a NaN V is
    kw = dict(V=1.0, q0=np.zeros(2), iters=10)
    kw[field] = value
    with pytest.raises(ValueError):
        run_qp(**kw)


def test_parameters_are_checked_in_order():
    # V, iters, the sample spec, the variant, then q0; a wrong q0 length
    # is found last
    for kw, match in ((dict(V=np.nan, iters=0), "^V must"),
                      (dict(iters=0, sample="bogus"), "^iters must"),
                      (dict(sample="bogus", variant="bogus"), "^sample spec"),
                      (dict(variant="bogus", q0=[-1.0, 0.0]), "^variant must"),
                      (dict(q0=[-1.0]), "nonnegative"),
                      (dict(q0=[1.0]), "^initial queue length")):
        with pytest.raises(ValueError, match=match):
            run_qp(**{**dict(V=QP_V, q0=np.zeros(2), iters=10), **kw})


def test_choose_V():
    b = builtin("qp_6_2")
    assert choose_V(b.program) == pytest.approx(4.0 / 0.34)
    n = builtin("num_6_1")
    assert choose_V(n.program) == pytest.approx(3 * 3 / (2 / 121))  # 544.5


def test_first_iteration_from_zero_queue():
    # from Q(0)=0 the rate allocation starts at the caps
    b = builtin("num_6_1")
    with pytest.warns(UserWarning):
        tr = run(b.program, b.oracle, V=363.0, q0=np.zeros(3), iters=1,
                 sample="linear")
    assert list(tr.t) == [1]
    caps = np.full(3, 11.0)  # xbar(1) = x(0)
    assert np.isclose(tr.f_xbar[0], b.program.objective(caps))
    assert np.allclose(tr.g_xbar[0], b.program.constraints(caps))
    assert tr.qnorm[0] == np.linalg.norm([23.0, 14.0, 14.0])


def test_zero_constraint_values_fix_the_queue():
    b = builtin("qp_6_2")
    lam = b.reference.lambda_star
    q0 = QP_V * lam  # stationary point of the queue recursion
    tr = run(b.program, b.oracle, V=QP_V, q0=q0, iters=20, sample="linear",
             reference=b.reference)
    _, queue = replay(b.oracle(QP_V), q0, tr.t)
    assert np.allclose(queue, q0, atol=1e-8)
    assert np.allclose(tr.qnorm, np.linalg.norm(q0), rtol=0, atol=1e-8)


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


# Sample specs whose window ends are all samples (linear), or mostly not.
AVERAGE_SAMPLES = ("linear", "log", "linear:7")


def iterate_history(b, iters):
    """x(0), ..., x(iters - 1) of the qp_6_2 run from Q(0) = 0."""
    return replay(b.oracle(QP_V), np.zeros(2), np.arange(iters))[0]


def assert_average_values(b, tr, t, xbar, sample):
    """f_xbar and g_xbar of sample t are f and g of the average ``xbar``."""
    i = tr.t.tolist().index(t)
    assert abs(tr.f_xbar[i] - b.program.objective(xbar)) <= 1e-9, (sample, t)
    assert np.abs(tr.g_xbar[i] - b.program.constraints(xbar)).max() <= 1e-10, (sample, t)


def test_standard_average_matches_recomputation():
    b = builtin("qp_6_2")
    history = iterate_history(b, 1001)
    for sample in AVERAGE_SAMPLES:
        tr = run(b.program, b.oracle, V=QP_V, q0=np.zeros(2), iters=1001, sample=sample)
        for t in tr.t:
            assert_average_values(b, tr, t, history[:t].mean(axis=0), sample)


def test_shifted_average_matches_recomputation():
    b = builtin("qp_6_2")
    history = iterate_history(b, 1001)
    for sample in AVERAGE_SAMPLES:
        tr = run(b.program, b.oracle, V=QP_V, q0=np.zeros(2), iters=1001,
                 variant="dpp_shifted", sample=sample)
        for t in tr.t:
            half = t // 2
            expect = history[half:2 * half].mean(axis=0) if half else history[0]
            assert_average_values(b, tr, t, expect, sample)


def test_objective_and_constraint_bounds_hold():
    # f(xbar) <= f* + ||Q0||^2/(2Vt) and
    # g_k(xbar) <= (sqrt(||Q0||^2 + V^2 ||lam*||^2) + V ||lam*||) / t
    b = builtin("qp_6_2")
    for q0 in (np.zeros(2), np.array([10.0, 10.0])):
        tr = run(b.program, b.oracle, V=QP_V, q0=q0, iters=2000, sample="log",
                 reference=b.reference)
        lam_norm = np.linalg.norm(b.reference.lambda_star)
        B = np.sqrt(q0 @ q0 + QP_V ** 2 * lam_norm ** 2) + QP_V * lam_norm
        assert np.all(tr.f_xbar <= b.reference.f_star
                      + (q0 @ q0) / (2 * QP_V * tr.t) + 1e-8)
        assert np.all(tr.g_xbar.max(axis=1) <= B / tr.t + 1e-8)
        assert np.all(tr.qnorm <= B + 1e-8)


def test_per_iteration_drift_plus_penalty_bound():
    # drift(t) + V f(x(t)) <= V f* at every step when V is above threshold
    b = builtin("qp_6_2")
    tr = run(b.program, b.oracle, V=QP_V, q0=np.zeros(2), iters=300,
             sample="linear")
    # row i holds x(t) and Q(t) for t = i+1; the drift of step t needs
    # Q(t+1), i.e. the next row's queue.  L(Q) = ||Q||^2 / 2.
    x, queue = replay(b.oracle(QP_V), np.zeros(2), tr.t)
    for i in range(len(tr) - 1):
        q, q_next = queue[i], queue[i + 1]
        drift = 0.5 * (q_next @ q_next) - 0.5 * (q @ q)
        assert drift + QP_V * b.program.objective(x[i]) <= QP_V * b.reference.f_star + 1e-8


def test_warns_below_guarantee_threshold():
    b = builtin("num_6_1")
    with pytest.warns(UserWarning, match="below the guarantee threshold"):
        run(b.program, b.oracle, V=363.0, q0=np.zeros(3), iters=5)
    # the threshold allows a relative 1e-12 for rounding: V at its edge does
    # not warn, and one float below it does
    b = builtin("qp_6_2")
    edge = choose_V(b.program) * (1 - 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(b.program, b.oracle, V=edge, q0=np.zeros(2), iters=5)
    with pytest.warns(UserWarning, match="below the guarantee threshold"):
        run(b.program, b.oracle, V=math.nextafter(edge, 0), q0=np.zeros(2), iters=5)


def test_queue_dimension_mismatch():
    b = builtin("qp_6_2")
    with pytest.raises(ValueError):
        run(b.program, b.oracle, V=QP_V, q0=np.zeros(3), iters=5)


def test_mis_shaped_constraints_are_rejected():
    # the kernel checks the shape of g(x(Q(0))) once, before the first step
    b = builtin("qp_6_2")
    p = b.program
    program = GenericProgram(n=p.n, m=p.m, objective=p.objective,
                             constraints=lambda x: p.constraints(x)[..., :1],
                             alpha=p.alpha, beta=p.beta)
    oracle = CountingOracle(b)
    with pytest.raises(DimensionError, match="g\\(x\\) has length 1, expected 2"):
        run(program, oracle, V=QP_V, q0=np.zeros(2), iters=5)
    assert oracle.calls == 0


def test_trace_records_dual_quantities_with_reference():
    b = builtin("qp_6_2")
    tr = run(b.program, b.oracle, V=QP_V, q0=np.zeros(2), iters=50,
             sample="linear", reference=b.reference)
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
    tr = run(b.program, b.oracle, V=V, q0=np.full(b.program.m, q0), iters=500,
             variant=variant, sample="linear", reference=b.reference)
    lam_star = b.reference.lambda_star
    _, queue = replay(b.oracle(V), np.full(b.program.m, q0), tr.t)
    for i in range(len(tr)):
        assert tr.qnorm[i] == np.linalg.norm(queue[i]), i
        assert tr.lambda_dist[i] == np.linalg.norm(queue[i] / V - lam_star), i


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # V = 422 is below m beta^2/alpha
        tr = run(b.program, b.oracle, V=V, q0=q0, iters=2000, variant=variant,
                 sample="linear:97", reference=b.reference)
    assert tr.t.tolist() == case["t"]
    # The NUM closed form and the DPP loop do the recording's arithmetic in
    # the recording's order, so those traces are bitwise equal.  The QP
    # oracle is now an affine map whose generated step sums M q in index
    # order, where the recording's BLAS could fuse a product into a sum,
    # and dual subgradient runs as DPP at V = 1/c; both move the last bits.
    exact = b.kind == "num" and case["variant"] != "dual_subgradient"
    # the trace keeps no queue: the recording's is checked against the replay
    columns = {name: getattr(tr, name) for name in GOLDEN_COLUMNS}
    columns["queue"] = replay(b.oracle(V), q0, tr.t)[1]
    for name, new in columns.items():
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


def reference_run(b, V, iters, variant, ts):
    """The DPP recurrence as a plain per-iteration loop, one queue at a time,
    over ``iters`` steps: the sampled columns at each t in ``ts``, by t, as
    run() records them, and the largest drift-identity residual of the
    steps before t, for each t <= iters, which is a run's to horizon t."""
    q = np.zeros(b.program.m)
    q_star, _ = dual_value_and_gradient(b.program, b.oracle, b.reference.lambda_star)
    S, rows, max_residual = [np.zeros(b.program.n)], {}, [0.0]
    oracle = b.oracle(V)
    for t in range(iters + 1):
        x = oracle.argmin(q)
        g = b.program.constraints(x)
        if t in ts:
            hi = max(t // 2 * 2, 1) if variant == "dpp_shifted" else t
            lo = hi // 2 if variant == "dpp_shifted" else 0
            xbar = (S[hi] - S[lo]) / (hi - lo)
            lam, d = q / V, q / V - b.reference.lambda_star
            rows[t] = (math.sqrt(q.dot(q)), b.program.objective(xbar),
                       b.program.constraints(xbar), math.sqrt(d.dot(d)),
                       q_star - (b.program.objective(x) + float(lam @ g)))
        qn = step(oracle, q)
        diff = qn - q
        max_residual.append(max(max_residual[-1], abs((0.5 * qn.dot(qn) - 0.5 * q.dot(q))
                                                      - (qn.dot(g) - 0.5 * diff.dot(diff)))))
        S.append(S[-1] + x)
        q = qn
    return rows, max_residual


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tag", BUILTIN_TAGS)
def test_blocks_match_the_per_iteration_loop(tag, variant):
    # runs that end just before, at and just after a block boundary, and
    # one that spans three blocks, are bitwise the plain loop's; at a
    # stride of 1.5 blocks the first block of all but the shortest run holds
    # no sample.
    # A sample's row and a step's residual do not depend on the horizon, so
    # one plain loop over the longest run serves every run.
    b = builtin(tag)
    V = choose_V(b.program)
    names = ("qnorm", "f_xbar", "g_xbar", "lambda_dist", "dual_gap")
    horizons = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)
    specs = ("linear", "log", f"linear:{_BLOCK * 3 // 2}")
    ts = {t for iters in horizons for sample in specs for t in sample_indices(iters, sample)}
    rows, max_residual = reference_run(b, V, horizons[-1], variant, ts)
    for iters in horizons:
        for sample in specs:
            tr = run(b.program, b.oracle, V=V, q0=np.zeros(b.program.m), iters=iters,
                     variant=variant, sample=sample, reference=b.reference)
            assert tr.t.tolist() == sample_indices(iters, sample).tolist()
            columns = [np.array(column) for column in zip(*(rows[t] for t in tr.t))]
            for name, expect in zip(names, columns):
                assert np.array_equal(getattr(tr, name), expect), (iters, sample, name)
            assert tr.max_drift_residual == max_residual[iters], (iters, sample)


class ReplayingOracle:
    """Base of the tests' oracles: keeps the number of steps each steps
    call makes, and the x that step t used, which its row argmin gives
    back by step index, one flushed block after another.  A single queue
    (x(lambda*), or the shape check of g(x(Q(0)))) goes to ``one``.  It is
    its own factory: built at V, it keeps its counts and returns itself."""

    def __init__(self, n):
        self.n, self.xs, self.replayed, self.chunks = n, [], 0, []
        self.calls = self.row_calls = self.queue_calls = 0

    def __call__(self, V):
        self.V = V
        return self

    def argmin(self, q):
        if q.ndim == 1:
            self.queue_calls += 1
            return self.one(q)
        self.row_calls += 1
        rows = self.xs[self.replayed:self.replayed + len(q)]
        self.replayed += len(q)
        return np.reshape(rows, (len(q), self.n))

    def steps(self, Q):
        self.chunks.append(len(Q) - 1)

    def record(self, x):
        self.xs.append(x)
        self.calls += 1


def whole_blocks(monkeypatch):
    """From here on, the kernel steps each block whole and finds no fixed
    point in it, so it rebuilds every row: as it must for an oracle whose
    step is not a function of the queue alone."""
    def step_whole_block(steps, Q):
        steps(Q)

    monkeypatch.setattr(driftopt.solver, "_step_to_fixed_point", step_whole_block)


class ScriptedOracle(ReplayingOracle):
    """x(t) = script[t] whatever the queue, with g(x) = x."""

    def __init__(self, script):
        super().__init__(1)
        self.script = script

    def one(self, q):
        return np.array([self.script[0]])

    def steps(self, Q):
        super().steps(Q)
        for t in range(len(Q) - 1):
            x = np.array([self.script[self.calls]])
            self.record(x)
            np.maximum(Q[t] + x, 0.0, out=Q[t + 1])


@pytest.mark.parametrize("step", [_BLOCK - 1, _BLOCK])
def test_drift_residual_of_a_step_at_a_block_edge(monkeypatch, step):
    # with g(x) = x: Q = 0 and g = -1 everywhere, except Q(step) = 1.1,
    # g(step) = 2.3 and Q(step + 2) = 0 again.  Every residual is exactly 0
    # but that of the step, which counts once Q(step + 1) exists.  The
    # script holds Q at 0 for steps on end and then moves it, so the kernel
    # steps every row
    whole_blocks(monkeypatch)
    program = GenericProgram(n=1, m=1, objective=lambda x: np.vecdot(x, x),
                             constraints=lambda x: x.copy(), alpha=2.0, beta=1.0)
    script = [-1.0] * (step + 3)
    script[step - 1:step + 2] = 1.1, 2.3, -10.0
    q, g = np.array([1.1]), np.array([2.3])
    qn = np.maximum(q + g, 0.0)
    diff = qn - q
    expect = abs((0.5 * qn.dot(qn) - 0.5 * q.dot(q)) - (qn.dot(g) - 0.5 * diff.dot(diff)))
    assert expect > 0
    for iters, residual in ((step, 0.0), (step + 1, expect), (step + 2, expect)):
        tr = run(program, ScriptedOracle(script), V=1.0, q0=np.zeros(1), iters=iters)
        assert tr.max_drift_residual == residual, iters


class CountingOracle(ReplayingOracle):
    """Steps, and gives a block's x rows, as the oracle that the factory
    ``inner`` (by default the bundle's own) builds at the same V does: the
    rows past the queue's fixed point, which the kernel copies, are never
    asked for, so none is replayed."""

    def __init__(self, b, inner=None):
        super().__init__(b.program.n)
        self.b, self.inner = b, inner or b.oracle

    def __call__(self, V):
        self.at_V = self.inner(V)
        return super().__call__(V)

    def one(self, q):
        return self.at_V.argmin(q)

    def argmin(self, q):
        if q.ndim == 2:
            self.row_calls += 1
            return self.at_V.argmin(q)
        return super().argmin(q)

    def steps(self, Q):
        super().steps(Q)
        self.at_V.steps(Q)
        for q in Q[:-1]:  # the queue each step started from
            self.record(self.at_V.argmin(q))


def test_shifted_run_makes_one_steps_call_per_block():
    b = builtin("qp_6_2")
    iters = 101
    traces, steps = [], []
    for inner in (b.oracle, generic_oracle(b, tol=1e-12)):
        oracle = CountingOracle(b, inner)
        traces.append(run(b.program, oracle, V=QP_V, q0=np.zeros(2), iters=iters,
                          variant="dpp_shifted", sample="linear", reference=b.reference))
        assert oracle.chunks == [1, iters]  # steps from Q(0..iters): one, then the rest
        assert oracle.calls == iters + 1
        assert oracle.row_calls == 1  # x(0..iters), in one block
        assert oracle.queue_calls == 2  # x(lambda*) and the shape check
        steps.append(np.array(oracle.xs))  # the x(t) that stepped Q(t)
    closed, generic = traces
    assert np.abs(closed.f_xbar - generic.f_xbar).max() <= 1e-7
    assert np.abs(closed.g_xbar - generic.g_xbar).max() <= 1e-8
    assert np.abs(steps[0] - steps[1]).max() <= 1e-8
    assert np.abs(closed.qnorm - generic.qnorm).max() <= 1e-8
    assert np.abs(closed.lambda_dist - generic.lambda_dist).max() <= 1e-8 / QP_V


@pytest.mark.parametrize("tag", ["num_6_1", "qp_6_2"])
def test_each_block_is_one_steps_call_covering_every_iteration(tag):
    # each block's steps, from Q(0..iters), are asked for once: one, then
    # _CHUNK at a time, as with nothing kept.  num_6_1 reaches the queue's
    # fixed point past the run (t* = 8970); qp_6_2 reaches it at t* = 2002,
    # inside the chunk that ends at row 2049, the next block, which opens
    # there, asks for one step, and the last copies that block's kept row
    b = builtin(tag)
    iters = 2 * _BLOCK + 3
    oracle = CountingOracle(b)
    tr = run(b.program, oracle, V=choose_V(b.program), q0=np.zeros(b.program.m),
             iters=iters, reference=b.reference)
    block = [1] + [_CHUNK] * ((_BLOCK - 1) // _CHUNK) + [(_BLOCK - 1) % _CHUNK]
    expect = {"num_6_1": block * 2 + [1, 3], "qp_6_2": block[:9] + [1]}[tag]
    assert oracle.chunks == expect
    assert oracle.calls == sum(expect) and oracle.row_calls == 3
    plain = run(b.program, b.oracle, V=choose_V(b.program), q0=np.zeros(b.program.m),
                iters=iters, reference=b.reference)
    for name in GOLDEN_COLUMNS:
        assert np.array_equal(getattr(tr, name), getattr(plain, name)), name


class FillingOracle:
    """The oracle that the bundle's factory builds at V, behind a wrapper
    whose steps only fills rows and returns nothing.  It keeps the number
    of steps of each steps call, one list per block, and of rows of each
    block argmin, the rows that the kernel rebuilds."""

    def __init__(self, b):
        self.b, self.rows, self.chunks = b, [], [[]]

    def __call__(self, V):
        self.inner = self.b.oracle(V)
        return self

    def argmin(self, q):
        if q.ndim == 2:  # the block's flush
            self.rows.append(len(q))
            self.chunks.append([])
        return self.inner.argmin(q)

    def steps(self, Q):
        self.chunks[-1].append(len(Q) - 1)
        self.inner.steps(Q)


def fixed_points(monkeypatch):
    """The list that gets, for each block that a run records from here on,
    stepped or copied, the fixed point's first row in it, or None."""
    found, record = [], driftopt.solver._Recorder.__call__

    def recording(self, Q, p, t0):
        found.append(p)
        return record(self, Q, p, t0)

    monkeypatch.setattr(driftopt.solver._Recorder, "__call__", recording)
    return found


def seen_and_hidden(b, **kw):
    """The bundle's oracle run from Q(0) = 0 at the default V, once with the
    kernel's stop at the queue's fixed point and once rebuilding every row:
    the rows that each block of either run rebuilt, the fixed point that
    each block of the first run recorded, the steps calls of each of its
    blocks, and the two traces."""
    seen, hidden = FillingOracle(b), FillingOracle(b)
    cfg = dict(V=choose_V(b.program), q0=np.zeros(b.program.m), reference=b.reference, **kw)
    with pytest.MonkeyPatch.context() as patch:
        fixed = fixed_points(patch)
        traces = [run(b.program, seen, **cfg)]
    with pytest.MonkeyPatch.context() as patch:
        whole_blocks(patch)
        traces.append(run(b.program, hidden, **cfg))
    return seen.rows, hidden.rows, fixed, seen.chunks[:-1], traces


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tag", BUILTIN_TAGS)
def test_a_block_at_the_fixed_point_rebuilds_two_rows(tag, variant):
    # from Q(0) = 0 at the default V each builtin reaches the queue's fixed
    # point within 4 blocks (at t* = 2002, 8970 and 12763): its block
    # rebuilds x and g through t*, each later full block two rows and the
    # last, of one row, its row, and the trace is bitwise the one that
    # rebuilds every row.  Of the blocks that open at the fixed point, the
    # first steps once and the others copy its kept row
    b = builtin(tag)
    seen, hidden, fixed, chunks, traces = seen_and_hidden(b, iters=4 * _BLOCK,
                                                          variant=variant)
    first = next(j for j, p in enumerate(fixed) if p is not None)
    assert fixed[first + 1:] == [0] * (4 - first)
    assert chunks[first + 1:] == [[1]] + [[]] * (3 - first)
    assert seen == [_BLOCK] * first + [max(fixed[first] + 1, 2)] + [2] * (3 - first) + [1]
    assert hidden == [_BLOCK] * 4 + [1]
    for name in GOLDEN_COLUMNS:
        assert np.array_equal(getattr(traces[0], name), getattr(traces[1], name)), name
    assert traces[0].max_drift_residual == traces[1].max_drift_residual


@pytest.mark.parametrize("m, seed", [(8, 0), (8, 7), (8, 10), (12, 38)])
def test_a_random_qp_past_the_fixed_point_agrees_with_a_full_rebuild(tmp_path, m, seed):
    # x(Q*) comes from a gemm of two rows or more, as in a full rebuild;
    # numpy sends one row to gemv, which rounds these m = 8 files' dual
    # gaps apart.  A gemm row may still round apart with its position and
    # the call's row count (the m = 12 file's dual gap does), so beyond
    # the builtins a trace agrees with a full rebuild to 1e-14 of
    # max(|f*|, 1), not always bitwise
    from test_perfbench_checks import load
    rng = random.Random(f"qp:{m}:{seed}")
    path = tmp_path / "qp.json"
    path.write_text(json.dumps(load("workloads")._qp_instance(rng, m, rng.randint(2, 8))))
    b = load_problem(path)
    _, _, fixed, _, traces = seen_and_hidden(b, iters=3 * _BLOCK)
    assert fixed[-1] == 0  # the last block opens at the fixed point
    scale = 1e-14 * max(abs(b.reference.f_star), 1.0)
    for name in GOLDEN_COLUMNS:
        a, h = getattr(traces[0], name), getattr(traces[1], name)
        if m == 8:
            assert np.array_equal(a, h), name
        np.testing.assert_allclose(a, h, rtol=1e-14, atol=scale, err_msg=name)


@pytest.mark.parametrize("tag,fixed", [("qp_6_2", 2002), ("num_6_1", 8970)])
def test_steps_stop_at_the_queues_fixed_point(monkeypatch, tag, fixed):
    # from Q(0) = 0 at the default V, Q(fixed + 1) is bitwise Q(fixed) and
    # so is every later row.  Each block steps once, then a chunk at a time:
    # the block that reaches the fixed point steps at most one chunk past
    # it and returns the fixed point's row in it, each later block one
    # step, and so does a block that starts there
    stepped = count_steps(monkeypatch)
    b = builtin(tag)
    oracle = b.oracle(choose_V(b.program))
    Q = np.zeros((20 * 1024 + 1, b.program.m))
    found = [_step_to_fixed_point(oracle.steps, Q[j * 1024:(j + 1) * 1024 + 1])
             for j in range(20)]
    assert found == [None] * (fixed // 1024) + [fixed % 1024] + [0] * (19 - fixed // 1024)
    assert fixed_point(Q) == fixed
    assert_bitwise_equal(Q[fixed:], np.broadcast_to(Q[fixed], Q[fixed:].shape))
    assert fixed + 1 <= sum(stepped) <= fixed + 1 + _CHUNK + 19 - fixed // 1024
    stepped.clear()
    R = np.empty((4097, b.program.m))
    R[0] = Q[-1]
    assert _step_to_fixed_point(oracle.steps, R) == 0
    assert stepped == [1]
    assert_bitwise_equal(R, np.broadcast_to(Q[-1], R.shape))


@pytest.mark.parametrize("tag,fixed", [("qp_6_2", 2002), ("num_6_1", 8970),
                                       ("num_5_2_rank_deficient", 12763)])
def test_an_oracle_whose_steps_only_fill_rows_gets_the_kernels_stop(tag, fixed):
    # the kernel, not the oracle, finds the queue's fixed point: the blocks
    # before t* ask for every step, the block of t* for at most one chunk
    # past it, the next block for one step and each later one for none, as
    # it copies that block's kept row; the trace is bitwise the bare closed
    # form's
    b = builtin(tag)
    oracle = FillingOracle(b)
    cfg = dict(V=choose_V(b.program), q0=np.zeros(b.program.m), iters=4 * _BLOCK,
               reference=b.reference)
    tr = run(b.program, oracle, **cfg)
    plain = run(b.program, b.oracle, **cfg)
    *blocks, after = oracle.chunks
    at = fixed // _BLOCK
    assert after == [] and len(blocks) == 5
    assert [sum(chunks) for chunks in blocks[:at]] == [_BLOCK] * at
    assert fixed % _BLOCK < sum(blocks[at]) <= fixed % _BLOCK + _CHUNK
    assert blocks[at + 1:] == [[1]] + [[]] * (3 - at)
    for name in GOLDEN_COLUMNS:
        assert np.array_equal(getattr(tr, name), getattr(plain, name)), name
    assert tr.max_drift_residual == plain.max_drift_residual


class HoldingOracle(FillingOracle):
    """Steps as the bundle's oracle does up to Q(at), then holds the queue
    there, which is no fixed point of the step: g at x(Q(at)) is not 0.
    Its steps only fill rows; the kernel finds the hold from their bits."""

    def __init__(self, b, at):
        super().__init__(b)
        self.at, self.t0 = at, 0

    def steps(self, Q):
        k = len(Q) - 1
        held = min(max(self.at - self.t0, 0), k)  # rows stepped before the hold
        self.inner.steps(Q[:held + 1])
        Q[held + 1:] = Q[held]
        self.t0 += k  # the step of the next call's row 0, until the hold


@pytest.mark.parametrize("iters", [50, 51, _BLOCK + 100])
def test_drift_residual_of_a_false_fixed_point(iters):
    # the held step's residual |Q(at) . g(x(Q(at)))| is the drift
    # identity's only large one; every later step repeats it, in the hold's
    # block and after
    b = builtin("qp_6_2")
    V = choose_V(b.program)
    tr = run(b.program, HoldingOracle(b, at=50), V=V, q0=np.zeros(2), iters=iters)
    inner = b.oracle(V)
    Q = np.empty((iters + 1, 2))
    Q[0] = 0.0
    inner.steps(Q[:51])
    Q[51:] = Q[50]
    expect = 0.0
    for q, qn in zip(Q[:-1], Q[1:]):
        g = b.program.constraints(inner.argmin(q))
        diff = qn - q
        expect = max(expect, abs((0.5 * qn.dot(qn) - 0.5 * q.dot(q))
                                 - (qn.dot(g) - 0.5 * diff.dot(diff))))
    assert tr.max_drift_residual == expect
    assert (expect > 1.0) == (iters > 50)


class OverflowingOracle(CountingOracle):
    """Returns +inf coordinates from step ``at`` on, and replays them, as
    no function of the queue does."""

    argmin = ReplayingOracle.argmin

    def __init__(self, b, at):
        super().__init__(b)
        self.at = at

    def steps(self, Q):
        k = min(len(Q) - 1, max(self.at - self.calls, 0))  # steps before ``at``
        super().steps(Q[:k + 1])
        self.chunks[-1] = len(Q) - 1  # the call covers the whole block
        for t in range(k, len(Q) - 1):
            x = np.full(self.n, np.inf)
            self.record(x)
            np.maximum(Q[t] + self.b.program.constraints(x), 0.0, out=Q[t + 1])


def test_non_finite_sample_carries_partial_trace(monkeypatch):
    whole_blocks(monkeypatch)
    b = builtin("qp_6_2")
    q0 = np.array([3.0, 1.0])
    cfg = dict(V=QP_V, q0=q0, iters=50, sample="linear")
    full = run(b.program, b.oracle, **cfg, reference=b.reference)
    # x(0..20) are finite; x(21) is not
    with pytest.raises(FloatingPointError, match="t = 21") as info:
        run(b.program, OverflowingOracle(b, at=21), **cfg, reference=b.reference)
    part = info.value.partial_trace
    assert part.t.tolist() == list(range(1, 21))
    for name in GOLDEN_COLUMNS:
        assert np.array_equal(getattr(part, name), getattr(full, name)[:20]), name
    # from step 21 on every residual is NaN (inf - inf), and NaN is skipped
    upto = run(b.program, b.oracle, V=QP_V, q0=q0, iters=21, sample="linear")
    assert part.max_drift_residual == upto.max_drift_residual


def test_run_stops_at_the_first_non_finite_block():
    # at V = 1e-300 the sample at t = 1 is already non-finite: the run ends
    # at the flush of the block that holds it, not after 1e5 iterations
    b = builtin("qp_6_2")
    oracle = CountingOracle(b)
    with pytest.warns(UserWarning), pytest.raises(FloatingPointError, match="t = 1$"):
        run(b.program, oracle, V=1e-300, q0=np.zeros(2), iters=100_000,
            reference=b.reference)
    assert oracle.calls <= 2 * _BLOCK and oracle.row_calls <= 2  # at most two blocks
    assert oracle.calls == sum(oracle.chunks)


@pytest.mark.parametrize("failing", [OverflowingOracle])
def test_shifted_failure_between_samples_carries_partial_trace(monkeypatch, failing):
    # samples at t = 7, 14, 21, 28, ...; x(24) overflows, inside the window
    # [14, 28) of the next sample
    whole_blocks(monkeypatch)
    b = builtin("qp_6_2")
    cfg = dict(V=QP_V, q0=np.array([3.0, 1.0]), iters=50,
               variant="dpp_shifted", sample="linear:7")
    full = run(b.program, b.oracle, **cfg, reference=b.reference)
    with pytest.raises(FloatingPointError) as info:
        run(b.program, failing(b, at=24), **cfg, reference=b.reference)
    part = info.value.partial_trace
    assert part.t.tolist() == [7, 14, 21]
    for name in GOLDEN_COLUMNS:
        assert np.array_equal(getattr(part, name), getattr(full, name)[:3]), name


# The queue cache: a block copies the queue rows that a block stepped with
# the same oracle factory and V from a row 0 of the same bytes kept, and
# is stepped otherwise.

ALGORITHMS = driftopt.cli.ALGORITHMS  # the dual subgradient method runs as dpp
CACHE_ITERS = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 20_000]


def assert_same_trace(a, b):
    expect = b.columns()
    for name, column in a.columns().items():
        if column is None:
            assert expect[name] is None, name
        else:
            assert_bitwise_equal(column, expect[name])
    assert a.max_drift_residual == b.max_drift_residual


@pytest.mark.parametrize("sample", ["log", "linear:7"])
@pytest.mark.parametrize("q0", [0.0, 2.0])
@pytest.mark.parametrize("tag", BUILTIN_TAGS)
def test_a_run_that_hits_the_queue_cache_is_bitwise_one_that_misses(tag, q0, sample):
    # every algorithm at every horizon, the cache emptied before each
    # miss; then in one cache, horizons shortest first and longest first
    b = builtin(tag)
    cfg = dict(V=choose_V(b.program), q0=np.full(b.program.m, q0), sample=sample,
               reference=b.reference)
    missed = {}
    for algorithm, variant in ALGORITHMS.items():
        for iters in CACHE_ITERS:
            driftopt.solver._KEPT.clear()
            missed[algorithm, iters] = run(b.program, b.oracle, iters=iters, variant=variant,
                                           **cfg)
    for order in (CACHE_ITERS, CACHE_ITERS[::-1]):
        driftopt.solver._KEPT.clear()
        for iters in order:
            for algorithm, variant in ALGORITHMS.items():
                tr = run(b.program, b.oracle, iters=iters, variant=variant, **cfg)
                assert_same_trace(tr, missed[algorithm, iters])


@pytest.mark.parametrize("tag", BUILTIN_TAGS)
def test_a_repeated_run_steps_no_kept_block(monkeypatch, tag):
    # every builtin reaches its fixed point within the kept blocks (t* =
    # 2002, 8970 and 12763): a repeated run of either variant steps
    # nothing, rebuilds the rows that the first run did and records the
    # trace of a run that steps
    b = builtin(tag)
    cfg = dict(V=choose_V(b.program), q0=np.zeros(b.program.m), iters=20_000,
               reference=b.reference)
    stepped = {variant: run(b.program, b.oracle, variant=variant, **cfg)
               for variant in VARIANTS}
    steps = count_steps(monkeypatch)
    oracle = FillingOracle(b)
    run(b.program, oracle, **cfg)
    assert steps and oracle.rows[-1] == 2  # the last block lies past the fixed point
    rows = oracle.rows
    steps.clear()
    for variant in VARIANTS:
        oracle.rows = []
        assert_same_trace(run(b.program, oracle, variant=variant, **cfg), stepped[variant])
        assert (steps, oracle.rows) == ([], rows)


def kept(factory):
    """The blocks that ``factory`` keeps, by (V, bytes of their row 0)."""
    return driftopt.solver._KEPT.get(factory, {})


def unstepped(Q):
    raise AssertionError("a block that kept rows cover was stepped")


@pytest.mark.parametrize("tag,fixed", [("qp_6_2", 2002), ("num_6_1", 8970)])
def test_kept_rows_fill_a_block_as_its_steps_do(tag, fixed):
    # a block of any length stepped from a row before, across or at t* is
    # kept under (V, its row 0) as (p, rows 1..p + 1), or as all its rows
    # where it found no fixed point.  It fills each block from that row
    # that it covers as _step_to_fixed_point does, and gives the same p,
    # None where the block ends before t*; a longer block from a row short
    # of t* is stepped and kept in its place
    b = builtin(tag)
    V, m = choose_V(b.program), b.program.m
    steps = b.oracle(V).steps
    Q = np.zeros((fixed + 2 * _BLOCK, m))
    _step_to_fixed_point(steps, Q)
    for t0 in (0, 1, fixed - 2, fixed - 1, fixed, fixed + 1):
        for first in (1, 2, _BLOCK):
            store = {}
            block = np.empty((first + 1, m))
            block[0] = Q[t0]
            p = driftopt.solver._fill(store, V, steps, block)
            n = first if p is None else p + 1
            assert list(store) == [(V, Q[t0].tobytes())]
            assert store[V, Q[t0].tobytes()][0] == p
            assert_bitwise_equal(store[V, Q[t0].tobytes()][1], Q[t0 + 1:t0 + n + 1])
            for k in (1, 2, _BLOCK):
                expect, got = np.full((2, k + 1, m), np.nan)
                expect[0] = got[0] = Q[t0]
                covered = p is not None or first >= k
                found = driftopt.solver._fill(store, V, unstepped if covered else steps, got)
                assert found == _step_to_fixed_point(steps, expect), (t0, first, k)
                assert_bitwise_equal(got, expect)
                if not covered:
                    n = k if found is None else found + 1
                    assert store[V, Q[t0].tobytes()][0] == found
                    assert_bitwise_equal(store[V, Q[t0].tobytes()][1], Q[t0 + 1:t0 + n + 1])


def test_another_key_misses_the_queue_cache(monkeypatch):
    # another V, another Q(0) (-0.0 is not 0.0), a rebuilt bundle or
    # another factory object steps afresh
    stepped = count_steps(monkeypatch)
    b = builtin("qp_6_2")
    V = choose_V(b.program)

    def steps(factory, V=V, q0=(0.0, 0.0)):
        stepped.clear()
        run(b.program, factory, V=V, q0=np.array(q0), iters=100)
        return sum(stepped)

    assert steps(b.oracle) == 101
    assert steps(b.oracle) == 0
    assert steps(b.oracle, V=2 * V) == 101
    assert steps(b.oracle, q0=(-0.0, 0.0)) == 101
    assert steps(b.oracle, q0=(0.0, 2.0)) == 101
    assert steps(functools.partial(b.oracle.func, *b.oracle.args)) == 101
    driftopt.problems._bundle.cache_clear()
    assert builtin("qp_6_2").oracle is not b.oracle
    assert steps(builtin("qp_6_2").oracle) == 101
    assert steps(b.oracle, q0=(-0.0, 0.0)) == 0


class UnhashableFactory:
    """The bundle's factory behind a callable that has no hash."""

    __hash__ = None

    def __init__(self, b):
        self.b = b

    def __call__(self, V):
        return self.b.oracle(V)


class SlottedFactory:
    """The bundle's factory behind a callable that takes no weak reference."""

    __slots__ = ("b",)

    def __init__(self, b):
        self.b = b

    def __call__(self, V):
        return self.b.oracle(V)


@pytest.mark.parametrize("cls", [UnhashableFactory, SlottedFactory], ids=lambda c: c.__name__)
def test_a_factory_that_cannot_be_a_key_runs_and_keeps_nothing(monkeypatch, cls):
    # a factory that is unhashable or takes no weak reference cannot key
    # the store: its runs record the plain run's trace, and each steps
    # through the chunk that ends past t* = 2002, as the first did
    stepped = count_steps(monkeypatch)
    b = builtin("qp_6_2")
    cfg = dict(V=choose_V(b.program), q0=np.zeros(b.program.m), iters=3000)
    plain = run(b.program, b.oracle, **cfg)
    held = len(driftopt.solver._KEPT)
    factory = cls(b)
    for _ in range(2):
        stepped.clear()
        assert_same_trace(run(b.program, factory, **cfg), plain)
        assert sum(stepped) == 1 + 8 * _CHUNK
    assert len(driftopt.solver._KEPT) == held


def test_kept_rows_go_with_their_factory():
    # a factory's blocks are kept under V and the bytes of their row 0, and
    # dropped when the factory is
    b = builtin("qp_6_2")
    factory = functools.partial(b.oracle.func, *b.oracle.args)
    V, q0 = choose_V(b.program), np.zeros(b.program.m)
    for scale in (1, 2, 3, 4, 5):
        run(b.program, factory, V=scale * V, q0=q0, iters=10)
    assert list(kept(factory)) == [(scale * V, q0.tobytes()) for scale in (1, 2, 3, 4, 5)]
    del factory
    assert driftopt.solver._KEPT == {}


def test_a_queue_with_no_fixed_point_keeps_at_most_the_byte_bound(tmp_path, monkeypatch):
    # an infeasible QP (x1 <= -1 and -x1 <= -1) whose queue grows for ever:
    # its blocks of 4,096 rows of 2 take 64 KiB each, so the factory keeps
    # the first 8, _CACHED_BYTES in all, and no later one.  A repeated run
    # copies those 8 blocks, steps the 67,233 rows after them and records
    # the same trace; a run at a second V finds the bound full and keeps
    # nothing
    stepped = count_steps(monkeypatch)
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps({"kind": "qp", "P": [[1.0]], "c": [0.0],
                                "A": [[1.0], [-1.0]], "b": [-1.0, -1.0]}))
    b = load_problem(path)
    V = choose_V(b.program)
    cfg = dict(q0=np.zeros(2), iters=100_000)
    first = run(b.program, b.oracle, V=V, **cfg)
    Q = np.zeros((100_002, 2))
    b.oracle(V).steps(Q)
    starts = range(0, 8 * _BLOCK, _BLOCK)
    assert list(kept(b.oracle)) == [(V, Q[t0].tobytes()) for t0 in starts]
    for t0, (p, rows) in zip(starts, kept(b.oracle).values()):
        assert p is None
        assert_bitwise_equal(rows, Q[t0 + 1:t0 + _BLOCK + 1])
    assert sum(rows.nbytes for _, rows in kept(b.oracle).values()) \
        == driftopt.solver._CACHED_BYTES
    stepped.clear()
    assert_same_trace(run(b.program, b.oracle, V=V, **cfg), first)
    assert sum(stepped) == 100_001 - 8 * _BLOCK == 67_233
    run(b.program, b.oracle, V=2 * V, **cfg)
    assert list(kept(b.oracle)) == [(V, Q[t0].tobytes()) for t0 in starts]


def test_a_one_shot_solve_of_many_constraints_keeps_at_most_the_byte_bound(
        tmp_path, capsys, monkeypatch):
    # 1,000 copies of x1 <= 1, whose queue reaches its fixed point at t* =
    # 897 at V = 520: the first block's 898 rows through t* pass
    # _CACHED_BYTES, so they are never kept or copied, and a repeated solve
    # steps that block again; the next block opens at t* and keeps its one
    # row, which the repeated solve copies.  Both write the same bytes
    stepped, step = [], _step_to_fixed_point
    monkeypatch.setattr(driftopt.solver, "_step_to_fixed_point",
                        lambda steps, Q: stepped.append(len(Q) - 1) or step(steps, Q))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"kind": "qp", "P": [[1.0]], "c": [-4.0],
                                "A": [[1.0]] * 1000, "b": [1.0] * 1000}))
    out = tmp_path / "wide.csv"
    argv = ["solve", "--problem", str(path), "--V", "520", "--iters", "5000", "--out", str(out)]
    written = []
    for blocks in ([_BLOCK, 5001 - _BLOCK], [_BLOCK]):
        stepped.clear()
        assert main(argv) == 0
        assert stepped == blocks
        written.append((capsys.readouterr(), out.read_bytes()))
        blocks = [block for entry in driftopt.solver._KEPT.values() for block in entry.values()]
        assert [(p, rows.shape) for p, rows in blocks] == [(0, (1, 1000))]
    assert written[0] == written[1]


@pytest.mark.parametrize("tag", BUILTIN_TAGS)
def test_a_run_from_the_fixed_point_steps_once(monkeypatch, tag):
    # from Q(0) = Q* every block opens at the fixed point: the first steps
    # once and keeps its row, the others copy it, and a repeated run steps
    # nothing.  Each block rebuilds two rows, and the last, of one row, its
    # row, and the trace is bitwise the one that steps and rebuilds every row
    b = builtin(tag)
    V, m = choose_V(b.program), b.program.m
    Q = np.zeros((4 * _BLOCK, m))
    _step_to_fixed_point(b.oracle(V).steps, Q)
    cfg = dict(V=V, q0=Q[-1], iters=3 * _BLOCK, reference=b.reference)
    with pytest.MonkeyPatch.context() as patch:
        whole_blocks(patch)
        hidden = run(b.program, b.oracle, **cfg)
    driftopt.solver._KEPT.clear()
    fixed, oracle = fixed_points(monkeypatch), FillingOracle(b)
    for chunks in ([[1], [], [], []], [[], [], [], []]):
        fixed.clear()
        oracle.rows, oracle.chunks = [], [[]]
        assert_same_trace(run(b.program, oracle, **cfg), hidden)
        assert (fixed, oracle.chunks[:-1], oracle.rows) == ([0] * 4, chunks, [2, 2, 2, 1])


def test_threads_running_one_builtin_at_once_get_its_traces():
    # 4 threads, more than the cores, switching every microsecond, each
    # running both variants at 3 horizons on one factory in its own order:
    # every trace is the one that a run alone records
    b = builtin("num_5_2_rank_deficient")
    cfg = dict(V=choose_V(b.program), q0=np.zeros(b.program.m), reference=b.reference)
    runs = [(variant, iters) for variant in VARIANTS for iters in (100, 5000, 20_000)]
    alone = {}
    for variant, iters in runs:
        driftopt.solver._KEPT.clear()
        alone[variant, iters] = run(b.program, b.oracle, variant=variant, iters=iters, **cfg)
    driftopt.solver._KEPT.clear()
    start = threading.Barrier(4, timeout=60)

    def solve(order):
        start.wait()
        return [run(b.program, b.oracle, variant=variant, iters=iters, **cfg)
                for variant, iters in order]

    orders = [runs, runs[::-1], runs[1::2] + runs[::2], runs[::-2] + runs[-2::-2]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(solve, order) for order in orders]
            done = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for order, traces in zip(orders, done):
        for key, tr in zip(order, traces):
            assert_same_trace(tr, alone[key])


def test_a_repeated_non_finite_solve_writes_the_same_partial_csv(tmp_path, capsys):
    # at V = 1e-100 the dpp-shifted sample at t = 2 is non-finite: the
    # second solve copies the first's queue and fails, and writes, as it did
    out = tmp_path / "partial.csv"
    argv = ["solve", "--builtin", "num_6_1", "--algorithm", "dpp-shifted", "--V", "1e-100",
            "--sample", "linear", "--iters", "100", "--out", str(out)]
    written = []
    for _ in range(2):
        assert main(argv) == 3
        written.append((capsys.readouterr(), out.read_bytes()))
    assert written[0] == written[1]
    assert written[0][1].count(b"\n") == 2  # the header and t = 1
