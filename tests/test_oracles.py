import re

import numpy as np
import pytest

from driftopt import (ClosedFormNumOracle, ClosedFormQpOracle, NumInstance, QpInstance,
                      builtin, choose_V)
from generic_oracle import (GenericOracleError, GenericProgram, ProjectedGradientOracle,
                            generic_oracle)

QP_V = 4.0 / 0.34
NUM_V = 363.0


def test_num_instance_validation():
    good = dict(c=[1.0], A=[[1.0]], b=[5.0], xmax=[10.0])
    NumInstance(**good)
    with pytest.raises(ValueError):
        NumInstance(**{**good, "c": [-1.0]})
    with pytest.raises(ValueError):
        NumInstance(**{**good, "b": [0.0]})
    with pytest.raises(ValueError):
        NumInstance(**{**good, "xmax": [5.0]})  # needs xmax > max b
    with pytest.raises(ValueError):
        NumInstance(**{**good, "A": [[0.5]]})  # not 0-1
    with pytest.raises(ValueError):
        NumInstance(c=[1.0, 1.0], A=[[1.0, 0.0]], b=[5.0], xmax=[10.0, 10.0])


def test_instance_copies_caller_arrays():
    b = np.array([10.0, 8.0, 8.0])
    inst = NumInstance(c=[1.0, 2.0, 3.0], A=[[1, 1, 1], [1, 1, 0], [0, 1, 1]],
                       b=b, xmax=[11.0] * 3)
    assert b.flags.writeable
    assert not inst.b.flags.writeable
    b[0] = 1.0
    assert inst.b[0] == 10.0
    P = np.eye(2)
    qp = QpInstance(P=P, c=[0.0, 0.0], A=[[1.0, 0.0]], b=[1.0])
    assert P.flags.writeable and not qp.P.flags.writeable


def test_qp_instance_validation():
    with pytest.raises(ValueError):
        QpInstance(P=[[1.0, 0.5], [0.0, 1.0]], c=[0, 0], A=[[1, 0]], b=[1])
    with pytest.raises(ValueError):
        QpInstance(P=[[0.0]], c=[0.0], A=[[1.0]], b=[1.0])  # 2P not PD


def test_qp_instance_checks_the_conditioning_of_P():
    # cond(2VP) = cond(2P) at every V, so the instance refuses what no
    # oracle built from it could factor well
    QpInstance(P=[[1.0, 0.0], [0.0, 1e-11]], c=[0, 0], A=[[1, 0]], b=[1])
    with pytest.raises(ValueError, match="P is ill-conditioned: cond\\(2P\\) is above 1e12"):
        QpInstance(P=[[1.0, 0.0], [0.0, 1e-13]], c=[0, 0], A=[[1, 0]], b=[1])


@pytest.mark.parametrize("V", [1e308, 1e300])
def test_qp_oracle_refuses_a_V_at_which_2VP_overflows(V):
    P = [[1.0, 0.0], [0.0, 1e8]]  # 2VP overflows from V ~ 9e299
    inst = QpInstance(P=P, c=[0.0, 0.0], A=[[1.0, 0.0]], b=[1.0])
    with pytest.raises(ValueError, match=re.escape(f"V={V:g} is too large for this program")):
        ClosedFormQpOracle(inst, V)
    ClosedFormQpOracle(inst, 1e299)


def test_log_utility_argmin_zero_queue_hits_caps():
    inst = builtin("num_6_1").program
    x = ClosedFormNumOracle(inst, NUM_V).argmin(np.zeros(3))
    assert np.allclose(x, inst.xmax)


def test_log_utility_argmin_scalar_closed_form():
    inst = NumInstance(c=[1.0], A=[[1.0]], b=[2.0], xmax=[5.0])
    x = ClosedFormNumOracle(inst, 1.0).argmin(np.array([2.0]))
    assert np.allclose(x, [0.5])


def test_log_utility_argmin_at_optimal_multiplier():
    # at q = V * lam_star the minimizer is the primal optimum
    b = builtin("num_5_2_rank_deficient")
    lam = np.array([0.3858, 0.0903, 0.7833, 0.0805])
    x = ClosedFormNumOracle(b.program, NUM_V).argmin(NUM_V * lam)
    assert abs(x[0] - 0.8553) < 1e-3
    assert np.allclose(x, [0.8553, 2.1447, 1.1447, 5.8553], atol=1e-3)


def test_quadratic_argmin_trivial():
    inst = QpInstance(P=[[0.5]], c=[0.0], A=[[1.0]], b=[1.0])
    x = ClosedFormQpOracle(inst, 1.0).argmin(np.zeros(1))
    assert np.allclose(x, [0.0])


def test_quadratic_argmin_unconstrained_minimum():
    inst = builtin("qp_6_2").program
    x = ClosedFormQpOracle(inst, 1.0).argmin(np.zeros(2))
    assert np.allclose(x, [-1.5, 0.5], atol=1e-12)


def test_quadratic_argmin_at_optimal_multiplier():
    b = builtin("qp_6_2")
    lam = b.reference.lambda_star
    for V in (1.0, QP_V, 100.0):
        x = ClosedFormQpOracle(b.program, V).argmin(V * lam)
        assert np.allclose(x, b.reference.x_star, atol=1e-9)


def test_qp_oracle_matches_direct_solve():
    b = builtin("qp_6_2")
    P, c, A = b.program.P, b.program.c, b.program.A
    oracle = ClosedFormQpOracle(b.program, QP_V)
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.uniform(0, 40, 2)
        # the minimizer of V f + q . g solves 2VP x = -(V c + A'q)
        direct = np.linalg.solve(2.0 * QP_V * P, -(QP_V * c + A.T @ q))
        assert np.allclose(oracle.argmin(q), direct, atol=1e-10)


def test_oracle_rejects_nonpositive_V():
    # the oracle is built at one V and checks it there, as run does: a
    # NaN or infinite V is refused too
    for cls, tag in ((ClosedFormNumOracle, "num_6_1"), (ClosedFormQpOracle, "qp_6_2")):
        inst = builtin(tag).program
        for V in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^V must be positive and finite$"):
                cls(inst, V)


def test_oracle_optimality_certificate():
    # returned x beats random nearby feasible points on the inner objective
    rng = np.random.default_rng(11)
    for tag, V in (("num_6_1", NUM_V), ("qp_6_2", QP_V)):
        b = builtin(tag)
        q = rng.uniform(0, 20, b.program.m)
        x = b.oracle(V).argmin(q)
        val = V * b.program.objective(x) + float(q @ b.program.constraints(x))
        # the box X: rates in [0, xmax], QP points in R^n
        lower, upper = (0.0, b.program.xmax) if b.kind == "num" else (-np.inf, np.inf)
        for _ in range(1000):
            xp = np.clip(x + rng.uniform(-0.1, 0.1, b.program.n), lower, upper)
            if tag == "num_6_1" and np.any(xp <= 0):
                continue
            valp = V * b.program.objective(xp) + float(q @ b.program.constraints(xp))
            assert val <= valp + 1e-8


def test_strong_convexity_inequality_at_minimizer():
    # inner objective grows at least (V alpha / 2) ||x - x'||^2 away from
    # the minimizer
    rng = np.random.default_rng(12)
    b = builtin("qp_6_2")
    alpha = b.constant("alpha_computed")
    q = np.array([3.0, 7.0])
    x = b.oracle(QP_V).argmin(q)
    val = QP_V * b.program.objective(x) + float(q @ b.program.constraints(x))
    for _ in range(200):
        xp = x + rng.uniform(-2, 2, 2)
        valp = QP_V * b.program.objective(xp) + float(q @ b.program.constraints(xp))
        assert val <= valp - 0.5 * QP_V * alpha * float((x - xp) @ (x - xp)) + 1e-8


def test_projected_gradient_matches_qp_closed_form():
    b = builtin("qp_6_2")
    x = generic_oracle(b, tol=1e-10)(1.0).argmin(np.zeros(2))
    assert np.allclose(x, [-1.5, 0.5], atol=1e-8)


def test_projected_gradient_matches_num_closed_form():
    b = builtin("num_6_1")
    rng = np.random.default_rng(5)
    gen = generic_oracle(b, tol=1e-10)(NUM_V)
    for _ in range(10):
        q = rng.uniform(0, 30, 3)
        assert np.allclose(gen.argmin(q),
                           b.oracle(NUM_V).argmin(q), atol=1e-6)


def test_projected_gradient_constant_constraints():
    # constraints independent of x leave only the strongly convex objective
    p = GenericProgram(n=3, m=1,
                       objective=lambda x: 0.5 * np.vecdot(x, x),
                       constraints=lambda x: x @ np.zeros((3, 1)) - 1.0,
                       alpha=1.0, beta=1.0)
    x = ProjectedGradientOracle(p, 1.0, lower=-np.inf, upper=np.inf,
                                objective_grad=lambda x: x,
                                constraints_jac=lambda x: np.zeros((1, 3)),
                                tol=1e-10).argmin(np.array([7.0]))
    assert np.allclose(x, np.zeros(3), atol=1e-9)


def test_projected_gradient_needs_derivatives():
    p = GenericProgram(n=1, m=1,
                       objective=lambda x: np.vecdot(x, x),
                       constraints=lambda x: x[..., :1],
                       alpha=2.0, beta=1.0)
    with pytest.raises(GenericOracleError):
        ProjectedGradientOracle(p, 1.0, lower=[-1.0], upper=[1.0]).argmin(np.zeros(1))


def test_log_utility_argmin_floor_matches_plain_quotient():
    # raising q . a_i to the oracle's floor is bitwise min(cV / (q . a_i), xmax)
    # on queues with zero entries, over a wide range of V
    rng = np.random.default_rng(11)
    for _ in range(200):
        n, m = rng.integers(1, 9, size=2)
        A = (rng.random((m, n)) < 0.5).astype(float)
        A[rng.integers(0, m, size=n), np.arange(n)] = 1.0
        b = rng.uniform(0.5, 10.0, m)
        inst = NumInstance(c=rng.uniform(0.1, 10.0, n), A=A, b=b,
                           xmax=b.max() * rng.uniform(1.01, 3.0, n))
        V = 10.0 ** rng.uniform(-100, 100)
        oracle = ClosedFormNumOracle(inst, V)
        q = rng.uniform(0, 10.0, m) * 10.0 ** rng.uniform(-200, 200)
        q[rng.random(m) < 0.3] = 0.0
        with np.errstate(divide="ignore"):
            plain = np.minimum(inst.c * V / q.dot(inst.A), inst.xmax)
        assert np.array_equal(oracle.argmin(q), plain)
        with np.errstate(all="raise"):
            assert np.array_equal(oracle.argmin(np.zeros(m)), inst.xmax)


def random_queues(rng, k, m):
    """k random queues over many magnitudes, about 30% of entries zero."""
    Q = rng.uniform(0, 10.0, (k, m)) * 10.0 ** rng.uniform(-100, 100, (k, 1))
    Q[rng.random((k, m)) < 0.3] = 0.0
    return Q


@pytest.mark.parametrize("tag", ["num_6_1", "num_5_2_rank_deficient"])
def test_num_step_is_argmin_then_constraints(tag):
    # bitwise max(q + g(x(q)), 0), the per-iteration update of the DPP loop
    b = builtin(tag)
    rng = np.random.default_rng(21)
    out = np.empty(b.program.m)
    for _ in range(200):
        V = 10.0 ** rng.uniform(-100, 100)
        oracle = b.oracle(V)
        for q in random_queues(rng, 10, b.program.m):
            expect = np.maximum(q + b.program.constraints(oracle.argmin(q)), 0.0)
            assert oracle.step(q, out) is out
            assert np.array_equal(out, expect), (q, V)


def test_qp_step_is_argmin_then_constraints():
    # the affine map M q + c0 regroups the sums of A (x0 + K q) - b, so it
    # agrees with argmin, then constraints, to rounding of the terms summed
    b = builtin("qp_6_2")
    P, c, A, b_vec = b.program.P, b.program.c, b.program.A, b.program.b
    rng = np.random.default_rng(22)
    out = np.empty(2)
    for _ in range(200):
        V = QP_V * 10.0 ** rng.uniform(-3, 3)
        x0 = np.linalg.solve(2.0 * V * P, -V * c)
        K = np.linalg.solve(2.0 * V * P, -A.T)
        oracle = b.oracle(V)
        for q in rng.uniform(0, 100, (10, 2)) * (rng.random((10, 2)) > 0.3):
            expect = np.maximum(q + b.program.constraints(oracle.argmin(q)), 0.0)
            terms = q + np.abs(A) @ (np.abs(x0) + np.abs(K) @ q) + np.abs(b_vec)
            assert oracle.step(q, out) is out
            assert np.all(np.abs(out - expect) <= 1e-14 * (1.0 + terms)), (q, V)


@pytest.mark.parametrize("tag", ["num_6_1", "qp_6_2", "num_5_2_rank_deficient"])
def test_row_argmin_is_the_one_queue_argmin(tag):
    # on the builtins, row i of a block's argmin is bitwise argmin(Q[i]),
    # which lets the DPP loop rebuild x once per block from its queues
    b = builtin(tag)
    rng = np.random.default_rng(23)
    for _ in range(20):
        V = choose_V(b.program) * 10.0 ** rng.uniform(-3, 3)
        Q = rng.uniform(0, 50, (300, b.program.m)) * 10.0 ** rng.uniform(-3, 3)
        Q[rng.random(Q.shape) < 0.3] = 0.0
        oracle = b.oracle(V)
        X = oracle.argmin(Q)
        assert X.shape == (300, b.program.n)
        for q, x in zip(Q, X):
            assert np.array_equal(x, oracle.argmin(q))
    assert oracle.argmin(Q[:0]).shape == (0, b.program.n)
