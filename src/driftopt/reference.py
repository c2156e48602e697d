"""Independent ground-truth solver: KKT active-set enumeration.

Enumerates candidate active sets (by increasing cardinality, then
lexicographically), solves the stationarity system for each, and returns
the first candidate passing dual nonnegativity, primal feasibility and
complementary slackness.  Global optimality follows from convexity.  The
problem kinds differ only in how they solve the stationarity system on a
set; the certificate is the same for both.  On a face of multipliers the
least-norm point is reported: the paper's bounds hold on the whole face,
and those that grow with ||lambda*|| are tightest there.

Kept deliberately independent of the iterative solvers so it can serve as
the oracle in every convergence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
def _enumerate(inst, stationary) -> KktSolution:
    """The first active set whose stationary point is a KKT point, finite.

    ``stationary(S)`` solves the stationarity system with the constraints
    in S (a list of indices) held at equality and returns (x, lambda_S), or
    None when the system has no admissible solution; a LinAlgError skips
    the set.  The objective is ``inst.objective``; the constraints are
    ``inst.constraints`` <= 0.
    """
    m = inst.m
    if m > MAX_CONSTRAINTS:
        raise ValueError("too many constraints for the enumeration oracle")
    for size in range(m + 1):
        for S in map(list, combinations(range(m), size)):
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


def kkt_solve_qp(inst: QpInstance) -> KktSolution:
    """Global optimum of a small QP by active-set enumeration.

    On each set the stationarity system is linear and solved in the
    least-squares sense; a residual above rounding level rejects the set.
    """
    n = inst.n
    H = 2.0 * inst.P

    def stationary(S):
        A_S = inst.A[S, :]
        K = np.block([[H, A_S.T], [A_S, np.zeros((len(S), len(S)))]])
        rhs = np.concatenate([-inst.c, inst.b[S]])
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        if np.linalg.norm(K @ sol - rhs) > 1e-8 * (1 + np.linalg.norm(rhs)):
            return None
        return sol[:n], sol[n:]

    return _enumerate(inst, stationary)


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
    multiplier may turn negative on the way or at the end.  Returns
    (x, lambda_S), or None when Newton fails or x is not interior to the
    box (a flow no link in S carries would sit at its cap).  After
    CERTIFY_AFTER iterations without success it returns None at once when
    ``_unsolvable`` shows that no x > 0 solves the system: there its
    multipliers diverge, and Newton would fail after all its iterations.
    """
    A_S = inst.A[S, :]
    if not A_S.any(axis=0).all():
        return None
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
    invariant xmax_i > max b_k guarantees.
    """
    return _enumerate(inst, lambda S: _num_newton(inst, S))
