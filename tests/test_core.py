import numpy as np
import pytest

from driftopt import IterateTrace, QpInstance, builtin, run, sample_indices
from driftopt.core import PER_DECADE, _as_queue
from replay import step

# min x'x s.t. x_1 + x_2 <= 1
QP = dict(P=np.eye(2), c=np.zeros(2), A=[[1.0, 1.0]], b=[1.0])


@pytest.mark.parametrize("field,value,message", [
    ("A", np.zeros((1, 0)), "A needs at least one column"),
    ("A", np.zeros((0, 2)), "A needs at least one constraint row"),
    ("alpha", 0.0, "alpha and beta must be positive"),
    ("beta", 0.0, "alpha and beta must be positive")], ids=["n", "m", "alpha", "beta"])
def test_program_validates_dimensions(field, value, message):
    # the program's n and m are A's shape; alpha and beta, given or
    # computed, must be positive
    with pytest.raises(ValueError, match=message):
        QpInstance(**{**QP, field: value})


def test_queue_state_rejects_negative():
    with pytest.raises(ValueError, match="queue entries must be nonnegative"):
        _as_queue(np.array([1.0, -0.1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_queue_state_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="queue entries must be finite"):
        _as_queue(np.array([1.0, bad]))


def test_queue_state_is_a_read_only_copy_that_admits_zeros():
    # zeros of both signs are nonnegative; the caller's array stays its own
    q = np.array([0.0, -0.0, 2.0])
    got = _as_queue(q)
    assert got.tobytes() == q.tobytes() and not got.flags.writeable
    q[2] = 5.0
    assert got[2] == 2.0 and q.flags.writeable
    assert _as_queue(3.0).tolist() == [3.0]


def test_queue_update_clamps_at_zero():
    # large queues on links 1 and 3 throttle every flow, so link 2 runs
    # below capacity: Q_2 + g_2(x) < 0 and the update max(Q + g, 0) clamps
    # Q_2 at zero
    b = builtin("num_6_1")
    q0 = np.array([1000.0, 0.0, 1000.0])
    V = 544.5
    oracle = b.oracle(V)
    g0 = b.program.constraints(oracle.argmin(q0))
    assert q0[1] + g0[1] < 0
    q1 = step(oracle, q0)
    assert np.array_equal(q1, np.maximum(q0 + g0, 0.0))
    assert q1[1] == 0.0
    tr = run(b.program, b.oracle, V=V, q0=q0, iters=1, sample="linear")
    assert tr.qnorm[0] == np.linalg.norm(q1)


def test_drift_identity_exact_on_updates():
    # drift equals Q(t+1).g - ||Q(t+1) - Q(t)||^2 / 2 on every step of a
    # run, for every variant and from random nonzero queues
    rng = np.random.default_rng(0)
    for tag in ("num_6_1", "qp_6_2"):
        b = builtin(tag)
        for variant in ("dpp", "dpp_shifted"):
            q0 = rng.uniform(0, 100, b.program.m)
            tr = run(b.program, b.oracle, V=1000.0, q0=q0, iters=500, variant=variant)
            scale = 1.0 + 0.5 * max(tr.qnorm.max(), np.linalg.norm(q0)) ** 2
            assert tr.max_drift_residual <= 1e-9 * scale


def test_trace_requires_increasing_t():
    cols = dict(f_xbar=np.zeros(3), g_xbar=np.zeros((3, 1)), qnorm=np.zeros(3))
    IterateTrace(t=[1, 5, 6], **cols)
    with pytest.raises(ValueError):
        IterateTrace(t=[1, 5, 5], **cols)
    with pytest.raises(ValueError):
        IterateTrace(t=[1, 5, 2], **cols)
    # t is an integer >= 1, as the CSV reader asks: neither truncated nor from 0
    for t in ([1.5, 2.7, 3.9], [0, 1, 2]):
        with pytest.raises(ValueError, match=r"\bt must hold integers >= 1"):
            IterateTrace(t=t, **cols)
    # and at most 2**53, where a double still holds every integer: the bound
    # is the int, as an int64 2**53 + 1 compares <= the double 2.0**53
    cols = dict(f_xbar=np.zeros(2), g_xbar=np.zeros((2, 1)), qnorm=np.zeros(2))
    for t in ([1, 2**53], np.array([1.0, 2.0**53])):
        assert IterateTrace(t=t, **cols).t.tolist() == [1, 2**53]
    for t in (np.array([1, 2**53 + 1]), [1.0, 2.0**53 + 2]):
        with pytest.raises(ValueError, match=r"\bt must be at most 2\*\*53$"):
            IterateTrace(t=t, **cols)


def test_trace_columns():
    tr = IterateTrace(t=[1, 3], f_xbar=np.array([2.0, 4.0]),
                      g_xbar=np.zeros((2, 1)), qnorm=np.zeros(2))
    assert len(tr) == 2
    assert tr.t.dtype.kind == "i" and list(tr.t) == [1, 3]
    assert np.allclose(tr.f_xbar, [2.0, 4.0])
    assert tr.lambda_dist is None and tr.dual_gap is None


def test_sample_indices_linear():
    assert sample_indices(10, "linear:3").tolist() == [3, 6, 9, 10]
    assert (sample_indices(5, "linear").tolist() == sample_indices(5, "linear:1").tolist()
            == [1, 2, 3, 4, 5])


def test_sample_indices_log():
    idx = sample_indices(100_000, "log")
    assert idx[0] == 1
    assert idx[-1] == 100_000
    assert all(a < b for a, b in zip(idx, idx[1:]))
    assert len(idx) < 2000  # stays bounded for long runs


@pytest.mark.parametrize("iters", [1, 2, 3, 10, 999, 2000, 12345, 100_000])
def test_sample_indices_log_keeps_the_grid_points_in_range(iters):
    # the rounded log grid filtered one element at a time, as a list
    decades = np.log10(max(iters, 2))
    grid = np.unique(np.round(10 ** np.linspace(0, decades, int(PER_DECADE * decades) + 1)))
    expect = [int(t) for t in grid if 1 <= t <= iters]
    if expect[-1] != iters:
        expect.append(iters)
    idx = sample_indices(iters, "log")
    assert idx.dtype == np.int64
    assert idx.tolist() == expect


def test_sample_indices_rejects_bad_input():
    with pytest.raises(ValueError):
        sample_indices(0)
    for sample in ("bogus", "linearfoo", "linear:", "linear:0", "log:3"):
        with pytest.raises(ValueError, match=repr(sample)):
            sample_indices(10, sample)
