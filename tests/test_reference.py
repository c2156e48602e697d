from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # is a face and its least-norm point, a vertex, is reported
    sol = kkt_solve_num(builtin("num_5_2_rank_deficient").program)
    assert np.allclose(sol.x_star, [0.8553, 2.1447, 1.1447, 5.8553], atol=1e-3)
    assert np.allclose(sol.lambda_star, [0.46628, 0.17078, 0.70284, 0.0],
                       atol=1e-5)
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


def face_points(M, lam0):
    """The points of the face {lam >= 0 : M lam = M lam0} that solve
    M lam = M lam0 with least norm on a support T, pinv(M[:, T]) M lam0
    and 0 off T, by increasing norm.  The first is the face's least-norm
    point: on its support T, the optimality conditions of min ||lam|| put
    lam_T in the row space of M[:, T].  numpy only, by brute force over
    every T: the reference for ``reference._min_norm_multiplier``."""
    k = M.shape[1]
    target = M @ lam0
    tol = 1e-14 * np.abs(lam0).max()
    points = []
    for size in range(k + 1):
        for T in map(list, combinations(range(k), size)):
            lam = np.zeros(k)
            lam[T] = np.linalg.pinv(M[:, T]) @ target
            if lam.min() >= -tol and np.abs(M @ lam - target).max() <= np.abs(M).max() * tol:
                points.append(lam)
    return sorted(points, key=np.linalg.norm)


def assert_least_norm_point(M, lam0, same_within=1e-14):
    """``_min_norm_multiplier`` finds the least-norm point of the face
    {lam >= 0 : M lam = M lam0}: nonnegative, on the face to rounding,
    equal to the brute-force reference within 1e-14 of its scale, and the
    same from the face's farthest point as from lam0, within
    ``same_within`` of its scale (that point is on the face to the
    rounding of a pseudoinverse)."""
    lam = reference._min_norm_multiplier(M, lam0)
    points = face_points(M, lam0)
    assert lam.min() >= 0.0
    assert np.abs(M @ (lam - lam0)).max() <= 1e-14 * np.abs(M).max() * np.abs(lam0).max()
    assert np.abs(lam - points[0]).max() <= 1e-14 * np.abs(points[0]).max()
    other = reference._min_norm_multiplier(M, np.maximum(points[-1], 0.0))
    assert np.abs(other - lam).max() <= same_within * np.abs(lam).max()
    return lam


def faces_reached(monkeypatch, instances):
    """The multiplier faces (M, lam0) that kkt_solve_num reaches on
    ``instances``, one per instance whose active set is not empty."""
    faces, least_norm = [], reference._min_norm_multiplier
    monkeypatch.setattr(reference, "_min_norm_multiplier",
                        lambda M, lam0: faces.append((M, lam0)) or least_norm(M, lam0))
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


def screen_nothing(sets):
    """A screen that rules no active set out: the plain enumeration."""
    return np.zeros(len(sets), dtype=bool)


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
            inst, lambda S: newton_without_certificate(inst, S)[0], screen_nothing))
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


def test_rank_deficient_face_matches_the_brute_force(monkeypatch):
    inst = builtin("num_5_2_rank_deficient").program
    [(M, lam0)] = faces_reached(monkeypatch, [inst])
    lam = assert_least_norm_point(M, lam0)
    assert np.array_equal(kkt_solve_num(inst).lambda_star, lam)


@pytest.mark.parametrize("seed", [0, 1])
def test_least_norm_multiplier_matches_the_brute_force(monkeypatch, seed):
    faces = faces_reached(monkeypatch, grid_instances(seed, 40))
    assert len(faces) == 40
    for M, lam0 in faces:
        assert M.shape[1] > np.linalg.matrix_rank(M)
        for scale in (1.0, 1e-14, 1e-6, 1e6):
            assert_least_norm_point(M, scale * lam0)


def faces_of_several_dimensions():
    """40 seeded faces (M, lam0) with mixed-sign gradients, as a QP's, and
    dimension 3 to 6: the hull's least-norm point has up to 5 negative
    entries, so the NNLS adds several columns."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = int(rng.integers(4, 8))
        M = rng.normal(size=(int(rng.integers(1, k - 2)), k))
        yield M, rng.uniform(0.0, 2.0, k) * (rng.random(k) < 0.6)


def test_least_norm_multiplier_on_faces_of_several_dimensions():
    # an NNLS that stops early is caught
    for M, lam0 in faces_of_several_dimensions():
        assert_least_norm_point(M, lam0, same_within=1e-13)


def test_least_norm_multiplier_is_exactly_zero_off_its_support():
    # the entries the reference puts at 0 (93 over the 40 faces) are 0.0,
    # not rounding residue, so a support test on lambda* needs no threshold
    zeros = 0
    for M, lam0 in faces_of_several_dimensions():
        off = face_points(M, lam0)[0] == 0.0
        assert np.all(reference._min_norm_multiplier(M, lam0)[off] == 0.0)
        zeros += off.sum()
    assert zeros == 93


def test_face_of_tiny_multipliers_reaches_its_least_norm_point():
    # multipliers near 1e-14, far below the rounding of a unit-scale face
    M, lam0 = np.array([[0.6095, 1.2877]]), np.array([3.53e-15, 1.03e-14])
    lam = assert_least_norm_point(M, lam0)
    assert lam == pytest.approx([4.6290e-15, 9.7798e-15], rel=1e-4, abs=0.0)


def test_zero_face_gives_zero():
    # lam0 = 0 lies on the face and has the least norm
    M = np.array([[1.0, -1.0, 0.5], [0.0, 1.0, 1.0]])
    assert np.array_equal(assert_least_norm_point(M, np.zeros(3)), np.zeros(3))
    # x* = 0 makes x <= 0 and 2x <= 0 active with lam = 0, the face's only point
    sol = kkt_solve_qp(QpInstance(P=[[1.0]], c=[0.0], A=[[1.0], [2.0]], b=[0.0, 0.0]))
    assert sol.active_set == (0, 1)
    assert np.array_equal(sol.lambda_star, [0.0, 0.0])


def test_face_without_interior_keeps_lam0():
    # lam1 + lam2 = 0 pins both at 0: the face is the single point lam0
    M, lam0 = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.array([0.0, 0.0, 1.0])
    assert np.array_equal(assert_least_norm_point(M, lam0), lam0)


def test_unbounded_face_keeps_lam0():
    # x1 = 1 written as x1 <= 1 and -x1 <= -1: lam + t (1, 1, 0) stays on
    # the face for every t >= 0, and t = 0 has the least norm
    inst = QpInstance(P=np.eye(2), c=[0.0, -2.0], A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                      b=[1.0, -1.0, 0.0])
    sol = kkt_solve_qp(inst)
    assert sol.active_set == (0, 1, 2)
    assert np.allclose(sol.x_star, [1.0, 0.0], atol=1e-12)
    assert np.allclose(sol.lambda_star, [0.0, 2.0, 2.0], atol=1e-12)
    for M, lam0 in ((inst.A.T, sol.lambda_star), (np.array([[1.0, -1.0]]), np.array([0.0, 2.0]))):
        assert np.allclose(assert_least_norm_point(M, lam0), lam0, rtol=0, atol=1e-14)
        # from a point up the unbounded direction, back to lam0
        up = lam0 + np.append([3.0, 3.0], np.zeros(len(lam0) - 2))
        assert np.allclose(reference._min_norm_multiplier(M, up), lam0, rtol=0, atol=1e-14)


def planted_qp(rng, n, m, active, weak, log_cond, duplicate):
    """A QP with a planted optimum x*: ``active`` constraints tight at
    multipliers in [0.1, 2], ``weak`` more tight at multiplier 0 (weakly
    active), the rest slack by 0.1 to 2, and 2P's condition number
    10^``log_cond``.  With ``duplicate``, row 1 of A and b repeats row 0."""
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    P = (Q * np.logspace(0.0, -log_cond, n)) @ Q.T
    A, x = rng.normal(size=(m, n)), rng.normal(size=n)
    order = rng.permutation(m)
    lam, slack = np.zeros(m), rng.uniform(0.1, 2.0, m)
    lam[order[:active]] = rng.uniform(0.1, 2.0, active)
    slack[order[:active + weak]] = 0.0
    if duplicate and m > 1:
        A[1], slack[1], lam[1] = A[0], slack[0], 0.0
    return QpInstance(P=(P + P.T) / 2, c=-2.0 * P @ x - A.T @ lam, A=A, b=A @ x + slack)


def solution_or_error(solve, inst):
    try:
        return solve(inst)
    except InfeasibleError as exc:
        return str(exc)


def assert_same_outcome(got, expect):
    if isinstance(expect, str):
        assert got == expect
    else:
        assert_same_solution(got, expect)


def unscreened_qp(inst):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference, "_qp_screen", lambda inst, H, sets: screen_nothing(sets))
        return solution_or_error(kkt_solve_qp, inst)


def counting_qp_screen(patch):
    """The list that gets, for each call of the QP screen from here on,
    the number of sets it was given and the number it ruled out."""
    calls, screen = [], reference._qp_screen

    def counting(inst, H, sets):
        out = screen(inst, H, sets)
        calls.append((len(sets), int(out.sum())))
        return out
    patch.setattr(reference, "_qp_screen", counting)
    return calls


def test_screened_enumeration_is_bitwise_the_plain_one():
    # planted QPs, weakly active constraints, 2P with cond up to 1e10 and
    # duplicate rows included, and random rate allocations, m <= 12: the
    # screen changes no bit of the solution, nor the error; chunks of 1, 2
    # and 5 sets put a size's sets in several chunks, as the default does
    # at m = 12 from size 3 up
    infeasible = QpInstance(P=[[1.0]], c=[0.0], A=[[1.0], [-1.0]], b=[-1.0, -1.0])
    assert solution_or_error(kkt_solve_qp, infeasible) == unscreened_qp(infeasible)
    assert isinstance(unscreened_qp(infeasible), str)
    screened = []

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 12),
           active=st.integers(0, 6), weak=st.integers(0, 2), log_cond=st.floats(0.0, 10.0),
           duplicate=st.booleans(), chunk=st.sampled_from([1, 2, 5, reference.SCREEN_CHUNK]))
    @example(seed=1, n=6, m=12, active=5, weak=2, log_cond=0.0, duplicate=False,
             chunk=reference.SCREEN_CHUNK)
    @example(seed=2, n=6, m=12, active=4, weak=1, log_cond=10.0, duplicate=True, chunk=5)
    @example(seed=3, n=5, m=12, active=5, weak=0, log_cond=3.0, duplicate=True,
             chunk=reference.SCREEN_CHUNK)
    @example(seed=4, n=4, m=9, active=2, weak=2, log_cond=6.0, duplicate=False, chunk=2)
    def check_qp(seed, n, m, active, weak, log_cond, duplicate, chunk):
        active = min(active, n, m)
        inst = planted_qp(np.random.default_rng(seed), n, m, active,
                          min(weak, m - active), log_cond, duplicate)
        expect = unscreened_qp(inst)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reference, "SCREEN_CHUNK", chunk)
            calls = counting_qp_screen(patch)
            assert_same_outcome(solution_or_error(kkt_solve_qp, inst), expect)
        screened.extend(calls)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), m=st.integers(1, 12),
           duplicate=st.booleans(), chunk=st.sampled_from([1, 5, reference.SCREEN_CHUNK]))
    @example(seed=1, n=5, m=12, duplicate=True, chunk=reference.SCREEN_CHUNK)
    @example(seed=2, n=4, m=10, duplicate=False, chunk=5)
    def check_num(seed, n, m, duplicate, chunk):
        rng = np.random.default_rng(seed)
        inst = random_num_file(rng, m, n)
        if duplicate and m > 1:
            A, b = inst.A.copy(), inst.b.copy()
            A[:2], b[1] = np.maximum(A[0], A[1]), b[0]  # still a link on every flow
            inst = NumInstance(A=A, b=b, c=inst.c, xmax=inst.xmax)

        def newton(S):  # each set, a set with a flow on none of its links refused first
            return reference._num_newton(inst, S) if inst.A[S].any(axis=0).all() else None

        expect = reference._enumerate(inst, newton, screen_nothing)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reference, "SCREEN_CHUNK", chunk)
            assert_same_solution(kkt_solve_num(inst), expect)

    check_qp()
    check_num()
    # the screen ruled sets out, in chunks of several sizes
    assert sum(out for _, out in screened) > 0
    assert len({count for count, out in screened if out}) > 3


def test_qp_screen_keeps_the_set_of_a_weakly_active_constraint():
    # x* = (1, 0) with x1 <= 1 active and x2 <= 0 weakly active: {0} is the
    # first KKT set, and the second constraint, off it, has g = 0 within
    # rounding; the screen rules out {1} and {2} and keeps {0}
    inst = QpInstance(P=np.eye(2), c=[-4.0, 0.0], A=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                      b=[1.0, 0.0, 5.0])
    expect = unscreened_qp(inst)
    with pytest.MonkeyPatch.context() as patch:
        calls = counting_qp_screen(patch)
        sol = kkt_solve_qp(inst)
    assert_same_solution(sol, expect)
    assert sol.active_set == (0, 1)
    assert np.allclose(sol.lambda_star, [2.0, 0.0, 0.0], rtol=0, atol=1e-12)
    assert calls == [(1, 0), (3, 2)]


def test_a_qp_screen_chunk_at_m_n_20_stays_within_four_stacks():
    # one chunk of SCREEN_CHUNK sets of size 10 at n = m = 20: K, inv(K)
    # and I - X K are each one (128, 30, 30) stack, 0.9 MiB, and the
    # screen's peak stays within four of them
    import tracemalloc
    rng = np.random.default_rng(20)
    inst = planted_qp(rng, 20, 20, 10, 0, 1.0, False)
    sets = np.array(list(islice(combinations(range(20), 10), reference.SCREEN_CHUNK)))
    H = 2.0 * inst.P
    reference._qp_screen(inst, H, sets)
    tracemalloc.start()
    try:
        out = reference._qp_screen(inst, H, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.any()
    assert peak <= 4 * reference.SCREEN_CHUNK * 30 * 30 * 8
