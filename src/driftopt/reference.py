"""Independent ground-truth solver: KKT active-set enumeration.

Enumerates candidate active sets (by increasing cardinality, then
lexicographically), solves the stationarity system for each, and returns
the first candidate passing dual nonnegativity, primal feasibility and
complementary slackness.  Global optimality follows from convexity.  The
problem kinds differ only in how they solve the stationarity system on a
set, and in a batched screen that rules out, a chunk of sets at a time,
sets that provably fail; the certificate is the same for both, and each
set the screen leaves is solved and certified in the same order as
without it.  On a face of multipliers the least-norm point is reported:
the paper's bounds hold on the whole face, and those that grow with
||lambda*|| are tightest there.

Kept deliberately independent of the iterative solvers so it can serve as
the oracle in every convergence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .oracles import NumInstance, QpInstance

FEAS_TOL = 1e-8
NEWTON_TOL = 1e-10
MAX_CONSTRAINTS = 20  # enumeration visits up to 2^m active sets
# Newton iterations on a NUM active set before it is tested for having no
# solution.  Of the sets that the enumeration visits on 252 random NUM
# files shaped as the benchmark's, every one that converged took fewer; a
# converging set that gets this far pays only the test.
CERTIFY_AFTER = 20
# Active sets of one size screened in one batch.  A QP chunk at n = m = 20
# holds three stacks of at most (128, 38, 38) floats, 1.4 MiB each; the
# screen of 128 sets of size 10 there peaks at 2.8 MiB (tracemalloc).
SCREEN_CHUNK = 128


class InfeasibleError(RuntimeError):
    """No active subset yields a KKT point (problem infeasible or solver failure)."""


@dataclass(frozen=True)
class KktSolution:
    """Primal/dual optimum of a small convex program.

    ``active_set`` holds the (0-based) indices k with g_k(x*) = 0 within
    FEAS_TOL.  Invariants: g(x*) <= FEAS_TOL componentwise, lambda* >= 0,
    and lambda*_k g_k(x*) = 0 within FEAS_TOL.  x* and lambda* are stored
    as read-only copies, so a shared solution cannot change.
    """

    x_star: np.ndarray
    f_star: float
    lambda_star: np.ndarray
    active_set: tuple[int, ...]

    def __post_init__(self):
        for name in ("x_star", "lambda_star"):
            val = np.array(getattr(self, name), dtype=float)
            val.flags.writeable = False
            object.__setattr__(self, name, val)


def _min_norm_multiplier(M: np.ndarray, lam0: np.ndarray) -> np.ndarray:
    """The least-norm point of the multiplier face {lam >= 0 : M lam = M lam0}.

    ``lam0``, any point of the face, is returned as it is when M has full
    column rank.  Otherwise, with N an orthonormal null-space basis of M,
    base = lam0 - N N' lam0 is the least-norm point of the face's affine
    hull, and min ||z|| s.t. base + N z >= 0 is a least-distance program:
    for u >= 0 minimizing ||G u - e||, with G = [N'; -base'] and e the
    last unit vector, r = G u - e gives z = -r[:-1] / r[-1] (Lawson and
    Hanson, ch. 23).  A positive u_k makes lam_k >= 0 tight (complementary
    slackness), so that entry is exactly 0.  base is scaled to a largest
    entry of 1 first, so the NNLS's tolerance serves a face near 1e-14 as
    it does one near 1.
    """
    _, sv, vh = np.linalg.svd(M)
    N = vh[np.sum(sv > sv.max() * np.finfo(float).eps * max(M.shape)):].T
    if not N.size:
        return lam0
    base = lam0 - N @ (N.T @ lam0)
    scale = np.abs(base).max() or 1.0
    G, e = np.vstack([N.T, -base / scale]), np.eye(N.shape[1] + 1)[-1]
    u = _nnls(G, e)
    r = G @ u - e
    return np.where(u > 0, 0.0, np.maximum(base - scale * (N @ r[:-1]) / r[-1], 0.0))


@np.errstate(all="ignore")  # a non-finite candidate is rejected, not warned about
def _enumerate(inst, stationary, screen) -> KktSolution:
    """The first active set whose stationary point is a KKT point, finite.

    ``stationary(S)`` solves the stationarity system with the constraints
    in S (a list of indices) held at equality and returns (x, lambda_S), or
    None when the system has no admissible solution; a LinAlgError skips
    the set.  ``screen(sets)`` takes a (k, size) array of sets, in
    combinations order, and returns a boolean k-vector, True where the set
    provably fails one of the tests below; the other sets are solved and
    tested one by one, in order.  The objective is ``inst.objective``; the
    constraints are ``inst.constraints`` <= 0.
    """
    m = inst.m
    if m > MAX_CONSTRAINTS:
        raise ValueError("too many constraints for the enumeration oracle")
    for S in _unscreened(m, screen):
        try:
            found = stationary(S)
        except np.linalg.LinAlgError:
            continue
        if found is None:
            continue
        x, lam_S = found
        if np.any(lam_S < -FEAS_TOL):
            continue
        lam = np.zeros(m)
        lam[S] = np.maximum(lam_S, 0.0)
        gvals = inst.constraints(x)
        if np.any(gvals > FEAS_TOL) or np.any(np.abs(lam * gvals) > FEAS_TOL):
            continue
        f_star = float(inst.objective(x))
        if not np.isfinite([*x, *lam, f_star]).all():  # NaN passed every test above
            continue
        active = [k for k in range(m) if abs(gvals[k]) <= FEAS_TOL]
        # a rank-deficient active set admits a face of multipliers: its least-norm point
        if active:
            lam[active] = _min_norm_multiplier(inst.A[active, :].T, lam[active])
        return KktSolution(x_star=x, f_star=f_star, lambda_star=lam,
                           active_set=tuple(active))
    raise InfeasibleError("no active subset produced a KKT point")


def _unscreened(m: int, screen):
    """The active sets of range(m) that ``screen`` does not rule out, each
    as a list, by size and then in combinations order; the screen sees up
    to SCREEN_CHUNK sets of one size at a time."""
    for size in range(m + 1):
        sets = combinations(range(m), size)
        while chunk := list(islice(sets, SCREEN_CHUNK)):
            ruled_out = screen(np.array(chunk, dtype=np.intp).reshape(len(chunk), size))
            yield from (list(S) for S, out in zip(chunk, ruled_out) if not out)


def _kkt_matrices(H: np.ndarray, A_S: np.ndarray) -> np.ndarray:
    """The QP's KKT matrices [[H, A_S'], [A_S, 0]] of a (k, s, n) stack of A_S."""
    k, s, n = A_S.shape
    K = np.zeros((k, n + s, n + s))
    K[:, :n, :n] = H
    K[:, :n, n:] = A_S.transpose(0, 2, 1)
    K[:, n:, :n] = A_S
    return K


def _qp_screen(inst: QpInstance, H: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """The QP sets, of a (k, s) stack, that ``kkt_solve_qp`` provably rejects.

    Per set, with K its KKT matrix, r = (-c, b_S), N = n + s, gamma =
    (N + 1) eps and 2-norms (Frobenius for matrices): X = inv(K) and xh =
    X r, stacked.  theta = ||fl(X K - I)|| + gamma ||X|| ||K|| bounds
    ||X K - I||, so where theta <= 1/4, K is nonsingular, ||K^-1|| <=
    ||X|| / (1 - theta), and as X r = x - (I - X K) x for the exact x =
    K^-1 r, ||x - xh|| <= 2 (theta ||xh|| + e) with e = gamma ||X|| ||r||.
    The per-set least-squares xl passes its residual test only where
    ||K xl - r|| <= tau + gamma ||K|| ||xl||, tau = (1 + 2 gamma) 1e-8
    (1 + ||r||) + gamma ||r|| (the test's bound and the rounding of the
    residual), so ||xl - x|| <= ||K^-1|| (tau + gamma ||K|| ||xl||), which
    with kappa = 2 gamma ||X|| ||K|| <= 1/4 gives ||xl - x|| <= 4 ||X|| tau
    + 4 kappa (||xh|| + e).  So each entry of xl, and of its lambda_S,
    lies within

        D = 2 (theta ||xh|| + e) + 4 ||X|| tau + 4 kappa (||xh|| + e)

    of xh's, and g_k = a_k x - b_k, rounded on both sides, within
    (1 + gamma) ||a_k|| D + 2 gamma (|a_k| |xh| + |b_k|), its margin.  A
    set is ruled out where some lambda_k < -(FEAS_TOL + D), or some g_k
    exceeds FEAS_TOL by more than its margin, as the per-set tests read
    every k.  The factor 2 in place of 1 / (1 - theta) leaves a third of
    each margin for the rounding of the margins themselves.  Nothing is
    ruled out in a stack with a singular K (LinAlgError), at a set whose
    theta, kappa or D is above its bound or not finite, at s > n, where K
    is singular, or in a chunk of one set, whose own solve costs less
    than a screen.
    """
    k, s = sets.shape
    n = inst.n
    if s > n or k == 1:
        return np.zeros(k, dtype=bool)
    K = _kkt_matrices(H, inst.A[sets])
    r = np.empty((k, n + s))
    r[:, :n], r[:, n:] = -inst.c, inst.b[sets]
    try:
        X = np.linalg.inv(K)
    except np.linalg.LinAlgError:
        return np.zeros(k, dtype=bool)
    E = X @ K
    E -= np.eye(n + s)
    xh = np.vecdot(X, r[:, None, :])
    norm_K, norm_X, norm_E = (np.sqrt(np.vecdot(Y, Y)) for Y in
                              (K.reshape(k, -1), X.reshape(k, -1), E.reshape(k, -1)))
    norm_r, norm_xh = np.sqrt(np.vecdot(r, r)), np.sqrt(np.vecdot(xh, xh))
    gamma = (n + s + 1) * np.finfo(float).eps
    kappa, e = 2.0 * gamma * norm_X * norm_K, gamma * norm_X * norm_r
    theta = norm_E + kappa / 2.0
    tau = (1.0 + 2.0 * gamma) * 1e-8 * (1.0 + norm_r) + gamma * norm_r
    D = 2.0 * (theta * norm_xh + e) + 4.0 * norm_X * tau + 4.0 * kappa * (norm_xh + e)
    A, b, x = inst.A, inst.b, xh[:, :n]
    g_margin = ((1.0 + gamma) * np.sqrt(np.vecdot(A, A)) * D[:, None]
                + 2.0 * gamma * (np.abs(x) @ np.abs(A).T + np.abs(b)))
    fails = ((xh[:, n:] < -(FEAS_TOL + D)[:, None]).any(axis=1)
             | (x @ A.T - b > FEAS_TOL + g_margin).any(axis=1))
    return fails & (theta <= 0.25) & (kappa <= 0.25) & np.isfinite(D)


def kkt_solve_qp(inst: QpInstance) -> KktSolution:
    """Global optimum of a small QP by active-set enumeration.

    On each set the stationarity system is linear and solved in the
    least-squares sense; a residual above rounding level rejects the set.
    A chunk of sets of one size is first screened in one stacked solve
    (``_qp_screen``), and only the sets it cannot rule out are solved.
    """
    n = inst.n
    H = 2.0 * inst.P

    def stationary(S):
        K = _kkt_matrices(H, inst.A[None, S])[0]
        rhs = np.concatenate([-inst.c, inst.b[S]])
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        if np.linalg.norm(K @ sol - rhs) > 1e-8 * (1 + np.linalg.norm(rhs)):
            return None
        return sol[:n], sol[n:]

    return _enumerate(inst, stationary, lambda sets: _qp_screen(inst, H, sets))


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An x >= 0 that minimizes ||A x - b||, by Lawson and Hanson's
    active-set method: add the column of largest gradient to the passive
    set, solve on it, and step back to x >= 0 when the solve leaves it.
    Stops at 3n additions, so a near-minimizer is possible."""
    n = A.shape[1]
    x, passive = np.zeros(n), np.zeros(n, dtype=bool)
    tol = 10 * np.finfo(float).eps * np.abs(A).sum(axis=0).max() * max(A.shape)
    for _ in range(3 * n):
        w = A.T @ (b - A @ x)
        if passive.all() or w[~passive].max() <= tol:
            break
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            bad = np.flatnonzero(passive & (s <= 0))
            if not len(bad):
                break
            # the largest step from x towards s that keeps x >= 0; the
            # column that stops it leaves the passive set
            steps = np.where(x[bad] > 0, x[bad] / (x[bad] - s[bad]), 0.0)
            x += steps.min() * (s - x)
            passive[bad[steps.argmin()]] = False
            passive &= x > tol
        x = s
    return x


def _unsolvable(A_S: np.ndarray, b_S: np.ndarray) -> bool:
    """Whether a Farkas certificate shows that no x > 0 has ||A_S x - b_S||
    <= NEWTON_TOL, for the 0-1 A_S of _num_newton, whose every column holds
    a 1.  Such an x has x_i <= max b_S + NEWTON_TOL, so for any unit d,
    ||A_S x - b_S|| >= d.b_S - (A_S'd).x >= L = d.b_S - (max b_S + 1)
    sum_i max((A_S'd)_i, 0).  d is the direction of the residual of the
    nonnegative least-squares x, and L must clear the tolerance by 1e-8 of
    the scale of b_S, far above the rounding of ||A_S x - b_S||."""
    r = b_S - A_S @ _nnls(A_S, b_S)
    size = np.linalg.norm(r)
    if size == 0.0:
        return False
    d = r / size
    L = d @ b_S - (b_S.max() + 1.0) * np.maximum(A_S.T @ d, 0.0).sum()
    return bool(L > 1e-8 * (1.0 + b_S.max()))


def _num_newton(inst: NumInstance, S: list[int]):
    """Stationary point of the rate-allocation program on active set S.

    Solves A_S x(lambda_S) = b_S with x_i = c_i / (lambda_S . a_i) by
    damped Newton from lambda_S = 1, halving steps (up to 60 times) only
    to keep every lambda_S . a_i positive, the domain of that system; a
    multiplier may turn negative on the way or at the end.  Every flow
    must be on a link in S (``kkt_solve_num`` screens out the sets that
    leave one at its cap).  Returns (x, lambda_S), or None when Newton
    fails or x is not interior to the box.  After CERTIFY_AFTER iterations
    without success it returns None at once when ``_unsolvable`` shows
    that no x > 0 solves the system: there its multipliers diverge, and
    Newton would fail after all its iterations.
    """
    A_S = inst.A[S, :]
    c, b_S = inst.c, inst.b[S]
    lam = np.ones(len(S))
    denom = lam @ A_S                      # lambda_S . a_i per flow
    for k in range(200):
        x = c / denom
        F = A_S @ x - b_S
        if np.linalg.norm(F) <= NEWTON_TOL:
            return None if np.any(x >= inst.xmax) else (x, lam)
        if k == CERTIFY_AFTER and _unsolvable(A_S, b_S):
            return None
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
            return None
        lam, denom = trial, trial_denom
    return None


def kkt_solve_num(inst: NumInstance) -> KktSolution:
    """Global optimum of a small rate-allocation instance.

    Enumerates active subsets of the capacity constraints and solves each
    stationarity system by damped Newton.  Valid only when the optimum is
    interior to the box (checked on every set), which the instance
    invariant xmax_i > max b_k guarantees.  A set that leaves a flow on
    none of its links, where that flow would sit at its cap, is screened
    out a chunk of sets at a time, before any Newton solve.
    """
    return _enumerate(inst, lambda S: _num_newton(inst, S),
                      lambda sets: ~inst.A[sets].any(axis=1).all(axis=1))
