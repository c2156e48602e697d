import numpy as np
import pytest

from driftopt import (InfeasibleError, NumInstance, QpInstance, builtin,
                      dual_value_and_gradient, kkt_solve_num, kkt_solve_qp)
from driftopt import reference


def test_qp_ground_truth():
    sol = kkt_solve_qp(builtin("qp_6_2").program)
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
    sol = kkt_solve_num(builtin("num_6_1").program)
    assert np.allclose(sol.x_star, [2.0, 3.2, 4.8], atol=1e-9)
    # objective value at the optimum (the closed-form log-utility sum)
    expect = -(np.log(2.0) + 2 * np.log(3.2) + 3 * np.log(4.8))
    assert sol.f_star == pytest.approx(expect, abs=1e-9)
    assert np.allclose(sol.lambda_star, [0.5, 0.0, 0.125], atol=1e-8)
    assert sol.active_set == (0, 2)


def test_num_rank_deficient_face_normalization():
    # all four constraints active, constraint matrix rank 3: the multiplier
    # is a face and the analytic center is reported
    sol = kkt_solve_num(builtin("num_5_2_rank_deficient").program)
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
    resid = (2.0 * b.program.P @ sol.x_star + b.program.c
             + b.program.A.T @ sol.lambda_star)
    assert np.abs(resid).max() <= 1e-8

    n = builtin("num_6_1")
    sol = n.reference
    resid = -n.program.c / sol.x_star + n.program.A.T @ sol.lambda_star
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


def scipy_analytic_center(M, lam0):
    """The analytic center of {lam >= 0 : M lam = M lam0} computed with
    scipy: ``null_space``, an interior start from ``linprog`` (HiGHS) that
    maximizes the smallest entry, and the library's damped Newton.  The
    independent cross-check of ``reference._analytic_center_multiplier``.
    """
    import scipy.linalg
    import scipy.optimize

    ns = scipy.linalg.null_space(M)
    if ns.size == 0 or not lam0.any():
        return lam0
    k = ns.shape[1]
    # on lam0 / max(lam0): HiGHS's absolute tolerances would fail a face
    # whose multipliers are about 1e-14
    res = scipy.optimize.linprog(
        c=np.concatenate([np.zeros(k), [-1.0]]),
        A_ub=np.hstack([-ns, np.ones((len(lam0), 1))]),
        b_ub=lam0 / lam0.max(), bounds=[(None, None)] * k + [(None, None)],
        method="highs")
    if not res.success or res.x[-1] <= 0:
        return lam0
    z = lam0.max() * res.x[:k]
    for _ in range(200):
        lam = lam0 + ns @ z
        grad = -ns.T @ (1.0 / lam)
        hess = ns.T @ ((ns.T / lam ** 2).T)
        step = np.linalg.solve(hess, -grad)
        tau = 1.0
        while np.any(lam0 + ns @ (z + tau * step) <= 0) and tau > 1e-18:
            tau *= 0.5
        z = z + tau * step
        if np.linalg.norm(tau * step) <= 1e-14 * lam0.max():
            break
    return lam0 + ns @ z


def assert_face_center(M, lam0, lam):
    """``lam`` is the analytic center of {lam >= 0 : M lam = M lam0}: it is
    positive, on the face to rounding, and N^T (1/lam) = 0 for a null-space
    basis N of M, relative to |1/lam|."""
    assert lam.min() > 0
    scale = np.abs(M).max() * np.abs(lam0).max()
    assert np.abs(M @ (lam - lam0)).max() <= 1e-14 * scale
    _, _, vh = np.linalg.svd(M)
    inv = 1.0 / lam
    assert np.abs(vh[np.linalg.matrix_rank(M):] @ inv).max() <= 1e-12 * np.linalg.norm(inv)


def faces_reached(monkeypatch, instances):
    """The multiplier faces (M, lam0) that kkt_solve_num reaches on ``instances``."""
    faces, center = [], reference._analytic_center_multiplier
    monkeypatch.setattr(reference, "_analytic_center_multiplier",
                        lambda M, lam0: faces.append((M, lam0)) or center(M, lam0))
    for inst in instances:
        kkt_solve_num(inst)
    monkeypatch.undo()
    return faces


def grid_instances(seed, count):
    """Seeded p x q grid rate allocations: one link per row and one per
    column of flows, so A has rank p + q - 1, and every link is tight at
    the planted optimum x0 > 0 with multipliers in [0.1, 2].
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p, q = rng.integers(2, 4, size=2)
        A = np.vstack([np.kron(np.eye(p), np.ones(q)), np.kron(np.ones(p), np.eye(q))])
        x0 = rng.uniform(0.5, 4.0, p * q)
        c = x0 * (A.T @ rng.uniform(0.1, 2.0, p + q))
        yield NumInstance(c=c, A=A, b=A @ x0, xmax=[4.0 * max(p, q) + 1] * (p * q))


def newton_without_certificate(inst, S):
    """_num_newton's damped Newton loop with no certificate: (x, lambda_S),
    or None, and how it ended: "solved", "search" (no step keeps every
    lambda_S . a_i positive) or "stalled" (all 200 iterations ran)."""
    A_S = inst.A[S, :]
    if not A_S.any(axis=0).all():
        return None, "no flow"
    c, b_S = inst.c, inst.b[S]
    lam = np.ones(len(S))
    denom = lam @ A_S
    for _ in range(200):
        x = c / denom
        F = A_S @ x - b_S
        if np.linalg.norm(F) <= reference.NEWTON_TOL:
            return (None if np.any(x >= inst.xmax) else (x, lam)), "solved"
        J = -(A_S * (c / denom ** 2)) @ A_S.T
        step = np.linalg.lstsq(J, -F, rcond=None)[0]
        tau = 1.0
        for _ in range(60):
            trial = lam + tau * step
            trial_denom = trial @ A_S
            if np.all(trial_denom > 0):
                break
            tau *= 0.5
        else:
            return None, "search"
        lam, denom = trial, trial_denom
    return None, "stalled"


def random_num_file(rng, m, n):
    """A random rate-allocation instance shaped as the benchmark's: a 0-1 A
    with density 1/2 and a one in every row and column, b in [2, 10]."""
    A = (rng.random((m, n)) < 0.5).astype(float)
    A[rng.integers(0, m, size=n), np.arange(n)] = 1.0
    A[np.arange(m), rng.integers(0, n, size=m)] = 1.0
    b = rng.uniform(2.0, 10.0, m)
    return NumInstance(A=A, b=b, c=rng.uniform(0.5, 3.0, n),
                       xmax=b.max() + rng.uniform(0.5, 5.0, n))


def assert_same_solution(got, expect):
    assert got.x_star.tobytes() == expect.x_star.tobytes()
    assert got.lambda_star.tobytes() == expect.lambda_star.tobytes()
    assert repr(got.f_star) == repr(expect.f_star) and got.active_set == expect.active_set


def test_certified_num_sets_are_sets_newton_fails_on(monkeypatch):
    # every set the enumeration certifies is one on which Newton without
    # the certificate runs all its iterations and fails, and the
    # enumeration finds bitwise the same KKT point as with that Newton
    certified, visiting = [], []
    newton, unsolvable = reference._num_newton, reference._unsolvable

    def tracking(inst, S):
        visiting[:] = [S]
        return newton(inst, S)

    def recording(A_S, b_S):
        found = unsolvable(A_S, b_S)
        if found:
            certified.append(visiting[0])
        return found

    monkeypatch.setattr(reference, "_num_newton", tracking)
    monkeypatch.setattr(reference, "_unsolvable", recording)
    rng = np.random.default_rng(5)
    for m in (4, 5, 6, 7, 8) * 4:
        inst = random_num_file(rng, m, int(rng.integers(2, 7)))
        before = len(certified)
        sol = kkt_solve_num(inst)
        for S in certified[before:]:
            assert newton_without_certificate(inst, S) == (None, "stalled")
        assert_same_solution(sol, reference._enumerate(
            inst, lambda S: newton_without_certificate(inst, S)[0]))
    assert len(certified) > 0


@pytest.mark.parametrize("A,b", [([[1, 1], [1, 1]], [9.24, 8.9]),
                                 ([[1, 1], [1, 0]], [9.24, 9.55])])
def test_inconsistent_num_set_ends_at_the_certificate(monkeypatch, A, b):
    # x1 + x2 cannot be both 9.24 and 8.9, nor x1 + x2 = 9.24 with
    # x1 = 9.55 > 9.24 at x2 >= 0: the multipliers diverge, Newton without
    # the certificate runs all its iterations, and with it the set ends
    # after CERTIFY_AFTER iterations and one NNLS
    inst = NumInstance(A=A, b=b, c=[1.0, 2.0], xmax=[12.0, 12.0])
    assert newton_without_certificate(inst, [0, 1]) == (None, "stalled")
    solves, lstsq = [], np.linalg.lstsq

    def counting(*args, **kwargs):
        solves.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    assert reference._num_newton(inst, [0, 1]) is None
    # the Jacobian is 2 x 2; the NNLS solves on columns of A_S, 2 x 1 or 2 x 2
    assert len(solves) <= reference.CERTIFY_AFTER + 2 * 3 * 2
    assert solves[:reference.CERTIFY_AFTER] == [(2, 2)] * reference.CERTIFY_AFTER


def test_num_set_that_newton_solves_after_the_test_keeps_its_solution(monkeypatch):
    # rows 3 and 7 of a benchmark file (seed 1, round 4, num_m7): x1 = 6.65
    # and x1 + x2 + x3 = 9.36 have a solution x > 0, which Newton reaches in
    # 21 iterations, so the set is tested at CERTIFY_AFTER, is not
    # certified, and Newton goes on to bitwise the same solution
    inst = NumInstance(A=[[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]],
                       b=[9.356219749151403, 6.6492966362176125],
                       c=[0.5452135712966697, 2.275546654161073, 1.1970782963899145],
                       xmax=[13.419733104577233, 11.514411567083553, 10.572526133718117])
    expect, ended = newton_without_certificate(inst, [0, 1])
    assert ended == "solved" and expect is not None
    tested, unsolvable = [], reference._unsolvable
    monkeypatch.setattr(reference, "_unsolvable",
                        lambda A_S, b_S: tested.append(unsolvable(A_S, b_S)) or tested[-1])
    found = reference._num_newton(inst, [0, 1])
    assert tested == [False]
    x, lam = found
    assert x.tobytes() == expect[0].tobytes() and lam.tobytes() == expect[1].tobytes()


def test_nnls_meets_its_optimality_conditions():
    # x >= 0 and the gradient A'(b - A x) is 0 where x > 0 and <= 0 where
    # x = 0, on 0-1 matrices like the NUM active sets', consistent or not
    rng = np.random.default_rng(6)
    for _ in range(200):
        m, n = rng.integers(1, 9, size=2)
        A = (rng.random((m, n)) < 0.5).astype(float)
        b = rng.uniform(0.0, 10.0, m)
        x = reference._nnls(A, b)
        w = A.T @ (b - A @ x)
        assert x.min() >= 0.0
        assert np.all(np.abs(w[x > 0]) <= 1e-9) and np.all(w[x == 0] <= 1e-9)


def test_rank_deficient_face_matches_scipy_bitwise(monkeypatch):
    inst = builtin("num_5_2_rank_deficient").program
    [(M, lam0)] = faces_reached(monkeypatch, [inst])
    assert np.array_equal(kkt_solve_num(inst).lambda_star, scipy_analytic_center(M, lam0))


@pytest.mark.parametrize("seed", [0, 1])
def test_face_center_optimality_and_scipy_agreement(monkeypatch, seed):
    faces = faces_reached(monkeypatch, grid_instances(seed, 40))
    assert len(faces) == 40
    for M, lam0 in faces:
        lam = reference._analytic_center_multiplier(M, lam0)
        assert_face_center(M, lam0, lam)
        expect = scipy_analytic_center(M, lam0)
        assert np.abs(lam - expect).max() <= 1e-14 * np.abs(expect).max()
        for scale in (1e-14, 1e-6, 1e6):  # the face and its center scale with lam0
            scaled = reference._analytic_center_multiplier(M, scale * lam0)
            assert np.abs(scaled - scale * lam).max() <= 1e-14 * scale * lam.max()
        # the cross-check finds the same center on a face near 1e-14
        expect = scipy_analytic_center(M, 1e-14 * lam0)
        assert np.abs(expect - 1e-14 * lam).max() <= 1e-14 * 1e-14 * lam.max()


def test_face_of_tiny_multipliers_reaches_its_center():
    # multipliers near 1e-14: a stopping rule in absolute terms ends one
    # Newton step from lam0, at (1.211e-14, 6.24e-15), with N^T (1/lam) at
    # 3% of |1/lam|
    M, lam0 = np.array([[0.6095, 1.2877]]), np.array([3.53e-15, 1.03e-14])
    lam = reference._analytic_center_multiplier(M, lam0)
    assert_face_center(M, lam0, lam)
    expect = scipy_analytic_center(M, lam0)
    assert np.abs(lam - expect).max() <= 1e-14 * np.abs(expect).max()
    assert lam == pytest.approx([1.2645e-14, 5.9854e-15], rel=1e-4)


def test_face_without_interior_keeps_lam0():
    # lam1 + lam2 = 0 pins both at 0: the face is the single point lam0
    M, lam0 = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.array([0.0, 0.0, 1.0])
    assert np.array_equal(reference._analytic_center_multiplier(M, lam0), lam0)
    assert np.array_equal(scipy_analytic_center(M, lam0), lam0)
    # x* = 0 makes x <= 0 and 2x <= 0 active with lam = 0, the face's only point
    sol = kkt_solve_qp(QpInstance(P=[[1.0]], c=[0.0], A=[[1.0], [2.0]], b=[0.0, 0.0]))
    assert sol.active_set == (0, 1)
    assert np.array_equal(sol.lambda_star, [0.0, 0.0])


def test_unbounded_face_keeps_lam0():
    # x1 = 1 written as x1 <= 1 and -x1 <= -1: lam + t (1, 1, 0) stays on
    # the face for every t >= 0, so it has no analytic center (a Newton
    # run from an interior point heads off to lam ~ 1e60)
    inst = QpInstance(P=np.eye(2), c=[0.0, -2.0], A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                      b=[1.0, -1.0, 0.0])
    sol = kkt_solve_qp(inst)
    assert sol.active_set == (0, 1, 2)
    assert np.allclose(sol.x_star, [1.0, 0.0], atol=1e-12)
    assert np.allclose(sol.lambda_star, [0.0, 2.0, 2.0], atol=1e-12)
    for M, lam0 in ((inst.A.T, sol.lambda_star), (np.array([[1.0, -1.0]]), np.array([0.0, 2.0]))):
        assert np.array_equal(reference._analytic_center_multiplier(M, lam0), lam0)
