import numpy as np
import pytest

from driftopt import (InfeasibleError, NumInstance, QpInstance, builtin,
                      dual_value_and_gradient, kkt_solve_num, kkt_solve_qp)


def test_qp_ground_truth():
    sol = kkt_solve_qp(builtin("qp_6_2").instance)
    assert np.allclose(sol.x_star, [-1.0, -1.0], atol=1e-9)
    assert sol.f_star == pytest.approx(8.0, abs=1e-9)
    assert np.allclose(sol.lambda_star, [5.0, 8.0], atol=1e-8)
    assert sol.active_set == (0, 1)


def test_qp_unconstrained_optimum_feasible():
    # slack right-hand side: active set empty, x* solves 2Px = -c
    inst = QpInstance(P=[[1.0, 2.0], [2.0, 5.0]], c=[1.0, 1.0],
                      A=[[1.0, 1.0], [0.0, 1.0]], b=[100.0, 100.0])
    sol = kkt_solve_qp(inst)
    assert sol.active_set == ()
    assert np.allclose(sol.lambda_star, [0.0, 0.0])
    assert np.allclose(sol.x_star, [-1.5, 0.5], atol=1e-10)


def test_qp_infeasible_reported():
    inst = QpInstance(P=[[1.0]], c=[0.0], A=[[1.0], [-1.0]], b=[-1.0, -1.0])
    with pytest.raises(InfeasibleError):
        kkt_solve_qp(inst)


def test_num_ground_truth():
    sol = kkt_solve_num(builtin("num_6_1").instance)
    assert np.allclose(sol.x_star, [2.0, 3.2, 4.8], atol=1e-9)
    # objective value at the optimum (the closed-form log-utility sum)
    expect = -(np.log(2.0) + 2 * np.log(3.2) + 3 * np.log(4.8))
    assert sol.f_star == pytest.approx(expect, abs=1e-9)
    assert np.allclose(sol.lambda_star, [0.5, 0.0, 0.125], atol=1e-8)
    assert sol.active_set == (0, 2)


def test_num_rank_deficient_face_normalization():
    # all four constraints active, constraint matrix rank 3: the multiplier
    # is a face and the analytic center is reported
    sol = kkt_solve_num(builtin("num_5_2_rank_deficient").instance)
    assert np.allclose(sol.x_star, [0.8553, 2.1447, 1.1447, 5.8553], atol=1e-3)
    assert np.allclose(sol.lambda_star, [0.3858, 0.0903, 0.7833, 0.0805],
                       atol=1e-3)
    assert sol.active_set == (0, 1, 2, 3)


def test_num_single_link():
    inst = NumInstance(c=[1.0], A=[[1.0]], b=[5.0], xmax=[10.0])
    sol = kkt_solve_num(inst)
    assert sol.x_star[0] == pytest.approx(5.0, abs=1e-9)
    assert sol.lambda_star[0] == pytest.approx(0.2, abs=1e-9)


def test_solution_invariants():
    for tag in ("num_6_1", "qp_6_2", "num_5_2_rank_deficient"):
        b = builtin(tag)
        sol = b.reference
        g = b.program.constraints(sol.x_star)
        assert g.max() <= 1e-8
        assert sol.lambda_star.min() >= -1e-12
        assert np.abs(sol.lambda_star * g).max() <= 1e-8


def test_strong_duality_consistency():
    # dual value at lam* equals the optimal primal value
    for tag in ("num_6_1", "qp_6_2", "num_5_2_rank_deficient"):
        b = builtin(tag)
        q_val, _ = dual_value_and_gradient(b.program, b.oracle,
                                           b.reference.lambda_star)
        assert q_val == pytest.approx(b.reference.f_star, abs=1e-7)


def test_saddle_consistency():
    # the inner oracle at q = V lam* returns x* for any V
    for tag in ("num_6_1", "qp_6_2", "num_5_2_rank_deficient"):
        b = builtin(tag)
        for V in (1.0, 10.0, 363.0):
            x = b.oracle(V).argmin(V * b.reference.lambda_star)
            assert np.abs(x - b.reference.x_star).max() <= 1e-6


def test_stationarity_residual():
    b = builtin("qp_6_2")
    sol = b.reference
    resid = (2.0 * b.instance.P @ sol.x_star + b.instance.c
             + b.instance.A.T @ sol.lambda_star)
    assert np.abs(resid).max() <= 1e-8

    n = builtin("num_6_1")
    sol = n.reference
    resid = -n.instance.c / sol.x_star + n.instance.A.T @ sol.lambda_star
    assert np.abs(resid).max() <= 1e-8


def test_enumeration_size_limit():
    A = np.eye(21)
    inst = QpInstance(P=np.eye(21), c=np.zeros(21), A=A, b=np.ones(21))
    with pytest.raises(ValueError):
        kkt_solve_qp(inst)


def test_num_newton_crosses_zero_multiplier():
    # Random rate-allocation file (benchmark seed 20, round 5, num_m8).  Its
    # optimum has active set {3, 5, 7} (1-based).  Newton on that set from
    # lambda_S = 1 passes through (0.60, -0.057, 2.93) at its second step;
    # a solve that halves its steps to keep every multiplier positive
    # pins the second one near 0, stalls at ||F|| = 3.84 and reports no
    # KKT point at all.
    inst = NumInstance(
        A=[[1, 1, 0, 1, 1], [1, 0, 0, 0, 0], [0, 1, 0, 1, 1], [1, 0, 0, 0, 0],
           [1, 0, 1, 1, 1], [0, 1, 0, 0, 1], [1, 1, 1, 0, 1], [1, 0, 0, 1, 0]],
        b=[8.051140578857158, 6.42453758962214, 2.302601266232279,
           7.517254954613977, 3.064805116229752, 9.428718050396629,
           2.643734760173996, 6.8044158253510805],
        c=[1.9857422135125837, 2.7285066363876567, 2.3707959492739246,
           1.2249826737074614, 1.3970648086997728],
        xmax=[12.209624166186995, 11.575966797346453, 12.680765216829577,
              14.17606412533256, 12.751727699097124])
    sol = kkt_solve_num(inst)
    assert sol.active_set == (2, 4, 6)
    g = inst.A @ sol.x_star - inst.b
    assert g.max() <= 1e-8
    assert sol.lambda_star.min() >= 0.0
    assert np.abs(sol.lambda_star * g).max() <= 1e-8
    resid = -inst.c / sol.x_star + inst.A.T @ sol.lambda_star
    assert np.abs(resid).max() <= 1e-8
    assert sol.f_star == pytest.approx(-(inst.c @ np.log(sol.x_star)), abs=1e-12)
