"""Independent ground-truth solver: KKT active-set enumeration.

Enumerates candidate active sets (by increasing cardinality, then
lexicographically), solves the stationarity system for each, and returns
the first candidate passing dual nonnegativity, primal feasibility and
complementary slackness.  Global optimality follows from convexity.  The
problem kinds differ only in how they solve the stationarity system on a
set; the certificate is the same for both.

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


def _strictly_inside(r0: np.ndarray, B: np.ndarray) -> np.ndarray | None:
    """A z with r0 + B z > 1e-12 componentwise, or None if none is found.

    Phase I for r0 of unit scale and orthonormal B: damped Newton on the
    barrier t s + sum log(r0 + B z - s) of max s s.t. r0 + B z >= s, with
    t raised tenfold a step up to 1e15, from the point of r0 + range(B)
    nearest all-ones.  Steps stay in the Dikin ellipsoid, so slacks stay > 0.
    """
    z = B.T @ (1.0 - r0)
    s = (r0 + B @ z).min() - 1.0
    C = np.hstack([B, -np.ones((len(r0), 1))])
    for k in range(40):
        r = r0 + B @ z
        if r.min() > 1e-12:
            return z
        w = 1.0 / (r - s)
        grad = C.T @ w
        grad[-1] += 10.0 ** min(k, 15)
        step = np.linalg.solve((C.T * w ** 2) @ C, grad)
        step /= 1.0 + np.sqrt(step @ grad)
        z, s = z + step[:-1], s + step[-1]
    return None


def _analytic_center_multiplier(M: np.ndarray, lam0: np.ndarray) -> np.ndarray:
    """Pick the analytic center of the multiplier face {lam >= 0 : M lam = M lam0}.

    When the active-constraint system is rank deficient the KKT multiplier
    is a nontrivial face; interior-point solvers land at its analytic
    center, so that is the deterministic representative we return.
    ``lam0`` is any nonnegative multiplier on the face, and is returned
    when the face has no interior or is unbounded (no center).
    """
    # scipy's null_space: the right singular vectors past the numerical rank
    _, sv, vh = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(sv > sv.max(initial=0.0) * np.finfo(float).eps * max(M.shape)))
    ns = vh[rank:].T
    if ns.size == 0 or not lam0.any():
        return lam0
    # Bounded iff no d >= 0, d != 0 has M d = 0, iff some M^T y > 0 (Gordan).
    bounded = _strictly_inside(np.zeros(len(lam0)), vh[:rank].T) is not None
    z = _strictly_inside(lam0 / lam0.max(), ns) if bounded else None
    if z is None:
        return lam0  # no interior or no center: keep the particular solution
    z = lam0.max() * z
    # Damped Newton on z -> -sum log(lam0 + ns z).
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


def _enumerate(inst, stationary) -> KktSolution:
    """The first active set whose stationary point is a KKT point.

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
            active = [k for k in range(m) if abs(gvals[k]) <= FEAS_TOL]
            M = inst.A[active, :].T
            # Rank-deficient active sets admit a multiplier face; normalize.
            if active and len(active) > np.linalg.matrix_rank(M):
                lam_face = _analytic_center_multiplier(M, lam[active])
                lam = np.zeros(m)
                lam[active] = lam_face
            return KktSolution(x_star=x, f_star=float(inst.objective(x)), lambda_star=lam,
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
        s = len(S)
        A_S = inst.A[S, :]
        K = np.zeros((n + s, n + s))
        K[:n, :n] = H
        K[:n, n:] = A_S.T
        K[n:, :n] = A_S
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
