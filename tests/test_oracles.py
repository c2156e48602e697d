import numpy as np
import pytest

from driftopt import (ClosedFormNumOracle, ClosedFormQpOracle, InnerSolveError,
                      NumInstance, ProjectedGradientOracle, QpInstance, builtin)

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


def test_log_utility_argmin_zero_queue_hits_caps():
    inst = builtin("num_6_1").instance
    x = ClosedFormNumOracle(inst).argmin(np.zeros(3), NUM_V)
    assert np.allclose(x, inst.xmax)


def test_log_utility_argmin_scalar_closed_form():
    inst = NumInstance(c=[1.0], A=[[1.0]], b=[2.0], xmax=[5.0])
    x = ClosedFormNumOracle(inst).argmin(np.array([2.0]), 1.0)
    assert np.allclose(x, [0.5])


def test_log_utility_argmin_at_optimal_multiplier():
    # at q = V * lam_star the minimizer is the primal optimum
    b = builtin("num_5_2_rank_deficient")
    lam = np.array([0.3858, 0.0903, 0.7833, 0.0805])
    x = ClosedFormNumOracle(b.instance).argmin(NUM_V * lam, NUM_V)
    assert abs(x[0] - 0.8553) < 1e-3
    assert np.allclose(x, [0.8553, 2.1447, 1.1447, 5.8553], atol=1e-3)


def test_quadratic_argmin_trivial():
    inst = QpInstance(P=[[0.5]], c=[0.0], A=[[1.0]], b=[1.0])
    x = ClosedFormQpOracle(inst).argmin(np.zeros(1), 1.0)
    assert np.allclose(x, [0.0])


def test_quadratic_argmin_unconstrained_minimum():
    inst = builtin("qp_6_2").instance
    x = ClosedFormQpOracle(inst).argmin(np.zeros(2), 1.0)
    assert np.allclose(x, [-1.5, 0.5], atol=1e-12)


def test_quadratic_argmin_at_optimal_multiplier():
    b = builtin("qp_6_2")
    lam = b.reference.lambda_star
    oracle = ClosedFormQpOracle(b.instance)
    for V in (1.0, QP_V, 100.0):
        x = oracle.argmin(V * lam, V)
        assert np.allclose(x, b.reference.x_star, atol=1e-9)


def test_qp_oracle_matches_direct_solve():
    b = builtin("qp_6_2")
    P, c, A = b.instance.P, b.instance.c, b.instance.A
    oracle = ClosedFormQpOracle(b.instance)
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.uniform(0, 40, 2)
        # the minimizer of V f + q . g solves 2VP x = -(V c + A'q)
        direct = np.linalg.solve(2.0 * QP_V * P, -(QP_V * c + A.T @ q))
        assert np.allclose(oracle.argmin(q, QP_V), direct, atol=1e-10)


def test_oracle_rejects_nonpositive_V():
    b = builtin("qp_6_2")
    with pytest.raises(ValueError):
        b.oracle.argmin(np.zeros(2), 0.0)
    n = builtin("num_6_1")
    with pytest.raises(ValueError):
        ClosedFormNumOracle(n.instance).argmin(np.zeros(3), -1.0)


def test_oracle_optimality_certificate():
    # returned x beats random nearby feasible points on the inner objective
    rng = np.random.default_rng(11)
    for tag, V in (("num_6_1", NUM_V), ("qp_6_2", QP_V)):
        b = builtin(tag)
        q = rng.uniform(0, 20, b.program.m)
        x = b.oracle.argmin(q, V)
        val = V * b.program.f(x) + float(q @ b.program.g(x))
        for _ in range(1000):
            xp = np.clip(x + rng.uniform(-0.1, 0.1, b.program.n),
                         b.program.lower, b.program.upper)
            if tag == "num_6_1" and np.any(xp <= 0):
                continue
            valp = V * b.program.f(xp) + float(q @ b.program.g(xp))
            assert val <= valp + 1e-8


def test_strong_convexity_inequality_at_minimizer():
    # inner objective grows at least (V alpha / 2) ||x - x'||^2 away from
    # the minimizer
    rng = np.random.default_rng(12)
    b = builtin("qp_6_2")
    alpha = b.constant("alpha_computed")
    q = np.array([3.0, 7.0])
    x = b.oracle.argmin(q, QP_V)
    val = QP_V * b.program.f(x) + float(q @ b.program.g(x))
    for _ in range(200):
        xp = x + rng.uniform(-2, 2, 2)
        valp = QP_V * b.program.f(xp) + float(q @ b.program.g(xp))
        assert val <= valp - 0.5 * QP_V * alpha * float((x - xp) @ (x - xp)) + 1e-8


def test_projected_gradient_matches_qp_closed_form():
    b = builtin("qp_6_2")
    x = ProjectedGradientOracle(b.program, tol=1e-10).argmin(np.zeros(2), 1.0)
    assert np.allclose(x, [-1.5, 0.5], atol=1e-8)


def test_projected_gradient_matches_num_closed_form():
    b = builtin("num_6_1")
    rng = np.random.default_rng(5)
    gen = ProjectedGradientOracle(b.program, tol=1e-10)
    for _ in range(10):
        q = rng.uniform(0, 30, 3)
        assert np.allclose(gen.argmin(q, NUM_V),
                           b.oracle.argmin(q, NUM_V), atol=1e-6)


def test_projected_gradient_constant_constraints():
    # constraints independent of x leave only the strongly convex objective
    from driftopt import ProgramSpec
    p = ProgramSpec(n=3, m=1,
                    objective=lambda x: 0.5 * float(x @ x),
                    constraints=lambda x: np.array([-1.0]),
                    lower=np.full(3, -np.inf), upper=np.full(3, np.inf),
                    alpha=1.0, beta=1.0,
                    objective_grad=lambda x: x,
                    constraints_jac=lambda x: np.zeros((1, 3)))
    x = ProjectedGradientOracle(p, tol=1e-10).argmin(np.array([7.0]), 1.0)
    assert np.allclose(x, np.zeros(3), atol=1e-9)


def test_projected_gradient_needs_derivatives():
    from driftopt import ProgramSpec
    p = ProgramSpec(n=1, m=1,
                    objective=lambda x: float(x @ x),
                    constraints=lambda x: np.array([x[0]]),
                    lower=[-1.0], upper=[1.0], alpha=2.0, beta=1.0)
    with pytest.raises(InnerSolveError):
        ProjectedGradientOracle(p).argmin(np.zeros(1), 1.0)
