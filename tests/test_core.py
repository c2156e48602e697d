import numpy as np
import pytest

from driftopt import (DimensionError, IterateTrace, ProgramSpec, QueueState,
                      SolverConfig, builtin, run, sample_indices)


def make_program(**kw):
    defaults = dict(
        n=2, m=1,
        objective=lambda x: np.vecdot(x, x),
        constraints=lambda x: x @ np.ones((2, 1)) - 1.0,
        alpha=2.0, beta=np.sqrt(2.0))
    defaults.update(kw)
    return ProgramSpec(**defaults)


def test_program_validates_dimensions():
    with pytest.raises(ValueError):
        make_program(alpha=0.0)


def test_program_evaluation():
    p = make_program()
    assert p.objective(np.array([1.0, 2.0])) == 5.0
    assert np.allclose(p.constraints(np.array([1.0, 2.0])), [2.0])


def test_queue_state_rejects_negative():
    with pytest.raises(ValueError):
        QueueState(np.array([1.0, -0.1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_queue_state_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        QueueState(np.array([1.0, bad]))


def test_queue_update_clamps_at_zero():
    # large queues on links 1 and 3 throttle every flow, so link 2 runs
    # below capacity: Q_2 + g_2(x) < 0 and the update max(Q + g, 0) clamps
    # Q_2 at zero
    b = builtin("num_6_1")
    q0 = np.array([1000.0, 0.0, 1000.0])
    cfg = SolverConfig(V=544.5, q0=q0, iters=1, sample="linear")
    tr = run(b.program, b.oracle, cfg)
    g0 = b.program.constraints(b.oracle(cfg.V).argmin(q0))
    assert q0[1] + g0[1] < 0
    assert np.array_equal(tr.queue[0], np.maximum(q0 + g0, 0.0))
    assert tr.queue[0][1] == 0.0


def test_drift_identity_exact_on_updates():
    # drift equals Q(t+1).g - ||Q(t+1) - Q(t)||^2 / 2 on every step of a
    # run, for every variant and from random nonzero queues
    rng = np.random.default_rng(0)
    for tag in ("num_6_1", "qp_6_2"):
        b = builtin(tag)
        for variant in ("dpp", "dpp_shifted"):
            q0 = rng.uniform(0, 100, b.program.m)
            cfg = SolverConfig(V=1000.0, q0=q0, iters=500, variant=variant)
            tr = run(b.program, b.oracle, cfg)
            scale = 1.0 + 0.5 * max(tr.qnorm.max(), np.linalg.norm(q0)) ** 2
            assert tr.max_drift_residual <= 1e-9 * scale


def test_trace_requires_increasing_t():
    cols = dict(f_xbar=np.zeros(3), g_xbar=np.zeros((3, 1)), qnorm=np.zeros(3))
    IterateTrace(t=[1, 5, 6], **cols)
    with pytest.raises(ValueError):
        IterateTrace(t=[1, 5, 5], **cols)
    with pytest.raises(ValueError):
        IterateTrace(t=[1, 5, 2], **cols)


def test_trace_columns():
    tr = IterateTrace(t=[1, 3], f_xbar=np.array([2.0, 4.0]),
                      g_xbar=np.zeros((2, 1)), qnorm=np.zeros(2))
    assert len(tr) == 2
    assert tr.t.dtype.kind == "i" and list(tr.t) == [1, 3]
    assert np.allclose(tr.f_xbar, [2.0, 4.0])
    assert tr.lambda_dist is None and tr.x is None and tr.queue is None


def test_sample_indices_linear():
    assert sample_indices(10, "linear:3") == [3, 6, 9, 10]
    assert sample_indices(5, "linear") == sample_indices(5, "linear:1") == [1, 2, 3, 4, 5]


def test_sample_indices_log():
    idx = sample_indices(100_000, "log")
    assert idx[0] == 1
    assert idx[-1] == 100_000
    assert all(a < b for a, b in zip(idx, idx[1:]))
    assert len(idx) < 2000  # stays bounded for long runs


def test_sample_indices_rejects_bad_input():
    with pytest.raises(ValueError):
        sample_indices(0)
    for sample in ("bogus", "linearfoo", "linear:", "linear:0", "log:3"):
        with pytest.raises(ValueError, match=repr(sample)):
            sample_indices(10, sample)
