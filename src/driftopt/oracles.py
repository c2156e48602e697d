"""Inner-minimization oracles: argmin over the box of V*f(x) + q.g(x).

One closed form per problem kind: log-utility rate allocation and the
unconstrained quadratic.  Every oracle takes the queue as a raw
nonnegative float array and the penalty ``V``, is pure given (q, V), and
caches its per-V constants.  It has two methods:

- ``argmin(q, V)``: x(q) for one queue (m,), or the (k, n) rows x(q_i) of
  a (k, m) block of queues;
- ``step(q, V, out)``: one DPP queue update, Q(t+1) = max(q + g(x(q)), 0),
  written into ``out`` and returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import DimensionError, _as_vector


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

    def step(self, q: np.ndarray, V: float, out: np.ndarray) -> np.ndarray:
        x = self.argmin(q, V)
        return np.maximum(q + (self.inst.A.dot(x) - self.inst.b), 0.0, out=out)


class ClosedFormQpOracle:
    """Inner oracle backed by the linear-system closed form (X = R^n).

    The minimizer solves 2VP x = -(V c + A'q), so at fixed V it is affine in
    the queue: x(q) = x0 + K q with x0 = (2VP)^-1 (-V c) and
    K = (2VP)^-1 (-A'); x0 + q K' maps one queue and a block of queue rows
    alike.  So is g(x(q)) = A x(q) - b, and the queue update is the affine
    map q' = max(M q + c0, 0) with M = I + A K and c0 = A x0 - b.  All of
    them come from one Cholesky factor, after the conditioning check, and
    are cached per V.
    """

    def __init__(self, inst: QpInstance):
        self.inst = inst
        self._cache = (None,) * 5  # (V, x0, K', M, c0), replaced as one tuple

    def _constants(self, V: float) -> tuple:
        if V <= 0:
            raise ValueError("V must be positive")
        H, A = 2.0 * V * self.inst.P, self.inst.A
        if np.linalg.cond(H) > 1e12:
            raise InnerSolveError("inner quadratic system is ill-conditioned")
        cho = scipy.linalg.cho_factor(H)
        x0 = scipy.linalg.cho_solve(cho, -(V * self.inst.c))
        K = scipy.linalg.cho_solve(cho, -A.T)
        self._cache = (V, x0, K.T.copy(), np.eye(len(A)) + A.dot(K), A.dot(x0) - self.inst.b)
        return self._cache

    def argmin(self, q: np.ndarray, V: float) -> np.ndarray:
        V_cached, x0, Kt, _, _ = self._cache
        if V != V_cached:
            _, x0, Kt, _, _ = self._constants(V)
        return x0 + q.dot(Kt)

    def step(self, q: np.ndarray, V: float, out: np.ndarray) -> np.ndarray:
        V_cached, _, _, M, c0 = self._cache
        if V != V_cached:
            _, _, _, M, c0 = self._constants(V)
        return np.maximum(M.dot(q) + c0, 0.0, out=out)
