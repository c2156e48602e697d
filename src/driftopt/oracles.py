"""Inner-minimization oracles: argmin over the box of V*f(x) + q.g(x).

Two closed forms (log-utility rate allocation, unconstrained quadratic) and
a generic projected-gradient fallback.  Every oracle takes the queue as a
raw nonnegative float array ``q`` and the penalty ``V``, and is pure given
(q, V); the closed forms cache their per-V constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import DimensionError, ProgramSpec, _as_vector


class InnerSolveError(RuntimeError):
    """Inner minimization failed."""


def _constraint_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim in (1, 2) and A.shape[0] == 0:
        raise ValueError("A needs at least one constraint row")
    if A.ndim != 2:
        raise DimensionError("A must be a matrix")
    return A


def _set_finite_readonly(inst, **fields: np.ndarray) -> None:
    """Store a read-only copy of each field on the frozen instance.

    The copy keeps the caller's own arrays writeable.
    """
    for name, val in fields.items():
        if not np.all(np.isfinite(val)):
            raise ValueError(f"{name} must be finite (found NaN or inf)")
        val = np.array(val, order="C")
        val.flags.writeable = False
        object.__setattr__(inst, name, val)


@dataclass(frozen=True)
class NumInstance:
    """Rate-allocation instance: min sum -c_i log x_i s.t. Ax <= b, 0 <= x <= xmax.

    A is a 0-1 routing matrix (m x n) with at least one nonzero per column,
    capacities b > 0, utility weights c > 0, and per-flow caps xmax with
    xmax_i > max_k b_k (so the caps never bind at the optimum).
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    xmax: np.ndarray

    def __post_init__(self):
        A = _constraint_matrix(self.A)
        m, n = A.shape
        c = _as_vector(self.c, n, "c")
        b = _as_vector(self.b, m, "b")
        xmax = _as_vector(self.xmax, n, "xmax")
        _set_finite_readonly(self, A=A, b=b, c=c, xmax=xmax)
        if np.any(c <= 0):
            raise ValueError("utility weights c must be positive")
        if np.any(b <= 0):
            raise ValueError("capacities b must be positive")
        if np.any(xmax <= b.max()):
            raise ValueError("need xmax_i > max_k b_k for every flow")
        if not np.all((A == 0) | (A == 1)):
            raise ValueError("A must be a 0-1 matrix")
        if np.any(A.sum(axis=0) < 1):
            raise ValueError("every column of A needs at least one nonzero")

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def objective(self, x: np.ndarray):
        # vecdot sums each row as a one-row call does; np.log(X) @ c would not
        return -np.vecdot(np.log(x), self.c)


@dataclass(frozen=True)
class QpInstance:
    """Quadratic program: min x'Px + c'x s.t. Ax <= b, with P symmetric PD."""

    P: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        A = _constraint_matrix(self.A)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DimensionError("P must be square")
        n = P.shape[0]
        if A.shape[1] != n:
            raise DimensionError("A must be m x n")
        m = A.shape[0]
        c = _as_vector(self.c, n, "c")
        b = _as_vector(self.b, m, "b")
        _set_finite_readonly(self, A=A, b=b, c=c, P=P)
        if np.abs(P - P.T).max() > 1e-12:
            raise ValueError("P must be symmetric")
        if np.linalg.eigvalsh(2.0 * P).min() <= 0:
            raise ValueError("2P must be positive definite")

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def alpha(self) -> float:
        """Strong-convexity modulus: smallest eigenvalue of 2P."""
        return float(np.linalg.eigvalsh(2.0 * self.P).min())

    def objective(self, x: np.ndarray):  # of an n-vector or of each row of a block
        return np.vecdot(x @ self.P, x) + x @ self.c


class ClosedFormNumOracle:
    """Inner oracle backed by the log-utility closed form.

    x_i = min(c_i V / (q . a_i), xmax_i), where a_i is the i-th column of A
    (x_i >= 0 because q, A and c are).  A zero q . a_i means constraint
    pressure never touches flow i, and the clip gives the cap, its
    continuous limit.  q . a_i is raised to floor_i, just below
    c_i V / xmax_i, so nothing divides by zero and the clip still gives the
    same bits.  The products c_i V and the floors are cached per V.
    """

    def __init__(self, inst: NumInstance):
        self.inst = inst
        self._cache = (None, None, None)  # (V, c * V, floor), replaced as one tuple

    def argmin(self, q: np.ndarray, V: float) -> np.ndarray:
        V_cached, cV, floor = self._cache
        if V != V_cached:
            if V <= 0:
                raise ValueError("V must be positive")
            cV = self.inst.c * V
            floor = cV / self.inst.xmax * (1 - 4 * np.finfo(float).eps)
            self._cache = (V, cV, floor)
        return np.minimum(cV / np.maximum(q.dot(self.inst.A), floor), self.inst.xmax)


class ClosedFormQpOracle:
    """Inner oracle backed by the linear-system closed form (X = R^n).

    The minimizer solves 2VP x = -(V c + A'q), so at fixed V it is affine in
    the queue: x(q) = x0 + K q with x0 = (2VP)^-1 (-V c) and
    K = (2VP)^-1 (-A').  Both come from one Cholesky factor, after the
    conditioning check, and are cached per V.
    """

    def __init__(self, inst: QpInstance):
        self.inst = inst
        self._cache = (None, None, None)  # (V, x0, K), replaced as one tuple

    def argmin(self, q: np.ndarray, V: float) -> np.ndarray:
        V_cached, x0, K = self._cache
        if V != V_cached:
            if V <= 0:
                raise ValueError("V must be positive")
            M = 2.0 * V * self.inst.P
            if np.linalg.cond(M) > 1e12:
                raise InnerSolveError("inner quadratic system is ill-conditioned")
            cho = scipy.linalg.cho_factor(M)
            x0 = scipy.linalg.cho_solve(cho, -(V * self.inst.c))
            K = scipy.linalg.cho_solve(cho, -self.inst.A.T)
            self._cache = (V, x0, K)
        return x0 + K.dot(q)


class ProjectedGradientOracle:
    """Generic inner oracle: projected gradient with Barzilai-Borwein steps.

    Minimizes phi(x) = V f(x) + q . g(x) over the box of an arbitrary
    program.  Requires analytic derivatives on the program; terminates when
    the gradient-map norm ||x - P(x - s grad)|| / s with reference step s
    drops below ``tol`` within ``MAX_STEPS`` steps.
    """

    MAX_STEPS = 200_000

    def __init__(self, program: ProgramSpec, tol: float = 1e-10):
        self.program = program
        self.tol = tol

    def argmin(self, q: np.ndarray, V: float) -> np.ndarray:
        program, tol = self.program, self.tol
        if V <= 0:
            raise ValueError("V must be positive")
        if program.objective_grad is None or program.constraints_jac is None:
            raise InnerSolveError("generic oracle needs objective_grad and constraints_jac")
        q = np.asarray(q, dtype=float)

        def phi(x):
            return V * program.f(x) + float(q @ program.g(x))

        def grad(x):
            return V * program.objective_grad(x) + program.constraints_jac(x).T @ q

        lo, hi = program.lower, program.upper
        finite_lo = np.where(np.isfinite(lo), lo, -1.0)
        finite_hi = np.where(np.isfinite(hi), hi, 1.0)
        x = np.clip(0.5 * (finite_lo + finite_hi), lo, hi)
        # Reference step from a local curvature probe along the gradient.
        gx = grad(x)
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        direction = gx / max(np.linalg.norm(gx), 1e-30)
        curv = np.linalg.norm(grad(np.clip(x + h * direction, lo, hi)) - gx) / h
        L_ref = max(curv, V * program.alpha, 1e-12)
        s_ref = 1.0 / L_ref

        fx = phi(x)
        step = s_ref
        for _ in range(self.MAX_STEPS):
            gap = np.linalg.norm(x - np.clip(x - s_ref * gx, lo, hi)) / s_ref
            if gap <= tol:
                return x
            # Backtrack from the BB step until the prox-descent condition holds.
            s = step
            for _ in range(200):
                x_new = np.clip(x - s * gx, lo, hi)
                dx = x_new - x
                f_new = phi(x_new)
                # The 1e-14 relative slack keeps rounding noise in phi from
                # rejecting genuine descent steps near the optimum.
                slack = 1e-14 * (1.0 + abs(fx))
                bound = fx + float(gx @ dx) + 0.5 / s * float(dx @ dx) + slack
                if np.isfinite(f_new) and f_new <= bound:
                    break
                s *= 0.5
            else:
                raise InnerSolveError("line search failed in generic inner oracle")
            g_new = grad(x_new)
            dx, dg = x_new - x, g_new - gx
            denom = float(dx @ dg)
            step = float(dx @ dx) / denom if denom > 0 else s_ref
            step = min(max(step, 1e-3 * s_ref), 1e6 * s_ref)
            x, gx, fx = x_new, g_new, f_new
        raise InnerSolveError(
            f"generic inner oracle did not reach tol={tol} within {self.MAX_STEPS} steps")
