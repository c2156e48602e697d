import numpy as np
import pytest

from driftopt import (NumInstance, builtin, dual_value_and_gradient,
                      general_dual_hessian, num_dual_hessian, theta_bound)


def test_dual_value_at_zero_multiplier():
    b = builtin("qp_6_2")
    q0, grad = dual_value_and_gradient(b.program, b.oracle, [0.0, 0.0])
    assert q0 == pytest.approx(-0.5, abs=1e-12)
    # gradient is g at the unconstrained minimizer (-1.5, 0.5)
    assert np.allclose(grad, b.program.constraints(np.array([-1.5, 0.5])), atol=1e-12)


def test_dual_value_at_optimal_multiplier():
    b = builtin("qp_6_2")
    q_star, grad = dual_value_and_gradient(b.program, b.oracle,
                                           b.reference.lambda_star)
    assert q_star == pytest.approx(8.0, abs=1e-9)
    assert np.abs(grad).max() <= 1e-9


def test_weak_duality_random_multipliers():
    rng = np.random.default_rng(21)
    for tag in ("num_6_1", "qp_6_2"):
        b = builtin(tag)
        for _ in range(50):
            lam = rng.uniform(0, 10, b.program.m)
            q_val, _ = dual_value_and_gradient(b.program, b.oracle, lam)
            assert q_val <= b.reference.f_star + 1e-8


def test_dual_rejects_negative_multiplier():
    b = builtin("qp_6_2")
    with pytest.raises(ValueError):
        dual_value_and_gradient(b.program, b.oracle, [-1.0, 0.0])


def test_concavity_of_dual():
    rng = np.random.default_rng(22)
    b = builtin("qp_6_2")
    for _ in range(100):
        l1 = rng.uniform(0, 10, 2)
        l2 = rng.uniform(0, 10, 2)
        eta = rng.uniform(0.05, 0.95)
        q1, _ = dual_value_and_gradient(b.program, b.oracle, l1)
        q2, _ = dual_value_and_gradient(b.program, b.oracle, l2)
        qm, _ = dual_value_and_gradient(b.program, b.oracle,
                                        eta * l1 + (1 - eta) * l2)
        assert qm >= eta * q1 + (1 - eta) * q2 - 1e-8


def test_gradient_matches_finite_differences():
    b = builtin("qp_6_2")
    lam = np.array([2.0, 3.0])
    _, grad = dual_value_and_gradient(b.program, b.oracle, lam)
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        qp_, _ = dual_value_and_gradient(b.program, b.oracle, lam + e)
        qm_, _ = dual_value_and_gradient(b.program, b.oracle, lam - e)
        fd = (qp_ - qm_) / (2 * h)
        assert abs(grad[k] - fd) <= 1e-5 * (1 + abs(fd))


def test_gradient_lipschitz_within_smoothness_modulus():
    rng = np.random.default_rng(23)
    b = builtin("qp_6_2")
    # smoothness modulus c_h^2 / sigma_F with c_h^2 = ||A||_F^2 = 3
    gamma = 3.0 / b.constant("alpha_computed")
    for _ in range(100):
        l1 = rng.uniform(0, 10, 2)
        l2 = rng.uniform(0, 10, 2)
        _, g1 = dual_value_and_gradient(b.program, b.oracle, l1)
        _, g2 = dual_value_and_gradient(b.program, b.oracle, l2)
        assert (np.linalg.norm(g1 - g2)
                <= gamma * np.linalg.norm(l1 - l2) + 1e-8)


def test_num_dual_hessian_scalar():
    inst = NumInstance(c=[1.0], A=[[1.0]], b=[1.0], xmax=[2.0])
    H = num_dual_hessian(inst, [1.0])
    assert np.allclose(H, [[-1.0]])


def test_num_dual_hessian_rank_deficient_null_direction():
    b = builtin("num_5_2_rank_deficient")
    H = num_dual_hessian(b.program, b.reference.lambda_star)
    mu = np.array([1.0, 1.0, -1.0, -1.0])
    assert float(mu @ H @ mu) == pytest.approx(0.0, abs=1e-10)
    assert np.linalg.norm(H @ mu) <= 1e-6


def test_num_dual_hessian_negative_definite_full_rank():
    b = builtin("num_6_1")
    H = num_dual_hessian(b.program, b.reference.lambda_star)
    assert np.linalg.eigvalsh(H).max() < -1e-6


def test_num_dual_hessian_domain_error():
    b = builtin("num_6_1")
    with pytest.raises(ValueError):
        num_dual_hessian(b.program, [0.0, 0.0, 0.0])


def test_general_dual_hessian_identity_case():
    H = general_dual_hessian(np.eye(3), np.eye(3))
    assert np.allclose(H, -np.eye(3))


def test_general_dual_hessian_qp():
    b = builtin("qp_6_2")
    A, P = b.program.A, b.program.P
    H = general_dual_hessian(A, 2.0 * P)
    expect = -A @ np.linalg.inv(2.0 * P) @ A.T
    assert np.allclose(H, expect, atol=1e-12)
    assert np.linalg.eigvalsh(H).max() < 0


def test_hessian_cross_formula_agreement():
    # the closed-form rate-allocation Hessian equals the generic formula
    # with hess_f = diag(c_i / x_i^2) evaluated at the inner minimizer
    for tag in ("num_6_1", "num_5_2_rank_deficient"):
        b = builtin(tag)
        lam = b.reference.lambda_star
        x = b.reference.x_star
        H1 = num_dual_hessian(b.program, lam)
        H2 = general_dual_hessian(b.program.A,
                                  np.diag(b.program.c / x ** 2))
        assert np.abs(H1 - H2).max() <= 1e-8


def test_hessian_matches_finite_difference_gradient():
    b = builtin("num_6_1")
    lam = b.reference.lambda_star + 0.05  # interior point
    H = num_dual_hessian(b.program, lam)
    h = 1e-5
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        _, gp = dual_value_and_gradient(b.program, b.oracle, lam + e)
        _, gm = dual_value_and_gradient(b.program, b.oracle, lam - e)
        fd = (gp - gm) / (2 * h)
        assert np.abs(H[:, k] - fd).max() <= 1e-4


def test_general_dual_hessian_requires_pd_inner():
    with pytest.raises(ValueError):
        general_dual_hessian(np.eye(2), -np.eye(2))


def rank(M):
    # numerical rank: singular values above 1e-10 times the largest
    return np.linalg.matrix_rank(M, tol=1e-10 * np.linalg.norm(M, 2))


def test_qualification_check_examples():
    # locally quadratic dual: the active rows of A are independent;
    # strongly concave dual: A has full row rank m
    n = builtin("num_6_1")
    A, active = n.program.A, list(n.reference.active_set)
    assert rank(A[active]) == len(active)
    assert rank(A) == n.program.m
    c = builtin("num_5_2_rank_deficient")
    A, active = c.program.A, list(c.reference.active_set)
    assert rank(A) < c.program.m
    assert rank(A[active]) < len(active)
    assert rank(np.eye(4)) == 4


def test_local_quadratic_growth_near_optimum():
    # q(lam*) >= q(lam) + Lq ||lam - lam*||^2 near lam*, with Lq half the
    # smallest-magnitude Hessian curvature
    b = builtin("num_6_1")
    lam_star = b.reference.lambda_star
    H = num_dual_hessian(b.program, lam_star)
    Lq = 0.5 * (-np.linalg.eigvalsh(H).max())
    q_star, _ = dual_value_and_gradient(b.program, b.oracle, lam_star)
    rng = np.random.default_rng(24)
    for _ in range(50):
        lam = np.maximum(lam_star + rng.uniform(-0.01, 0.01, 3), 0.0)
        q_val, _ = dual_value_and_gradient(b.program, b.oracle, lam)
        assert q_star >= q_val + Lq * float((lam - lam_star) @ (lam - lam_star)) - 1e-6


def test_theta_bound_values():
    assert theta_bound(2.0, 1.0, [1.0], [1.0], 5.0, 5.0) == 0.0
    assert theta_bound(1.0, 1.0, [0.0], [1.0], 0.0, 1.0) == 4.0
    with pytest.raises(ValueError):
        theta_bound(1.0, 2.0, [0.0], [1.0], 0.0, 1.0)
