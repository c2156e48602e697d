"""Inner-minimization oracles: argmin over the box of V*f(x) + q.g(x).

One closed form per problem kind: log-utility rate allocation and the
unconstrained quadratic.  Each kind's instance is a ``core.ProgramSpec``
that adds its own fields, checks and objective, and its computed alpha.
An oracle is built for one instance and one penalty ``V``, a constant of
the DPP run, and computes its per-V constants then; only a bad V can make
that fail, as the instance checks what holds at every V, such as the
QP's conditioning.  It takes the queue as a raw nonnegative float array,
is pure in it, and has two methods:

- ``argmin(q)``: x(q) for one queue (m,), or the (k, n) rows x(q_i) of a
  (k, m) block of queues;
- ``step(q, out)``: one DPP queue update, Q(t+1) = max(q + g(x(q)), 0),
  written into ``out`` and returned.

Only the QP oracle needs scipy: it imports ``scipy.linalg`` when it is
built, for the Cholesky factor of 2VP.  The instances and the NUM oracle
need numpy alone, so importing this module or building a problem bundle
(which keeps the oracle factory, not an oracle) loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, ProgramSpec, _as_vector, _check_V, _set_finite_readonly


@dataclass(frozen=True)
class NumInstance(ProgramSpec):
    """Rate-allocation instance: min sum -c_i log x_i s.t. Ax <= b, 0 <= x <= xmax.

    A is a 0-1 routing matrix (m x n) with at least one nonzero per column,
    capacities b > 0, utility weights c > 0, and per-flow caps xmax with
    xmax_i > max_k b_k (so the caps never bind at the optimum).
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    xmax: np.ndarray

    def _check_kind(self):
        _set_finite_readonly(self, xmax=_as_vector(self.xmax, self.n, "xmax"))
        if np.any(self.c <= 0):
            raise ValueError("utility weights c must be positive")
        if np.any(self.b <= 0):
            raise ValueError("capacities b must be positive")
        if np.any(self.xmax <= self.b.max()):
            raise ValueError("need xmax_i > max_k b_k for every flow")
        if not np.all((self.A == 0) | (self.A == 1)):
            raise ValueError("A must be a 0-1 matrix")
        if np.any(self.A.sum(axis=0) < 1):
            raise ValueError("every column of A needs at least one nonzero")

    @property
    def alpha_computed(self) -> float:
        """Strong-convexity modulus on the box: min c_i / xmax_i^2."""
        return float(min(self.c / self.xmax ** 2))

    def objective(self, x: np.ndarray):
        # vecdot sums each row as a one-row call does; np.log(X) @ c would not
        return -np.vecdot(np.log(x), self.c)


@dataclass(frozen=True)
class QpInstance(ProgramSpec):
    """Quadratic program: min x'Px + c'x s.t. Ax <= b, P symmetric PD, cond(2P) <= 1e12."""

    P: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def _check_kind(self):
        P = np.asarray(self.P, dtype=float)
        if P.shape != (self.n, self.n):
            raise DimensionError("P must be n x n, for A m x n")
        _set_finite_readonly(self, P=P)
        if np.abs(P - P.T).max() > 1e-12:
            raise ValueError("P must be symmetric")
        eig = np.linalg.eigvalsh(2.0 * P)
        if eig.min() <= 0:
            raise ValueError("2P must be positive definite")
        if eig.max() > 1e12 * eig.min():
            raise ValueError("P is ill-conditioned: cond(2P) is above 1e12")

    @property
    def alpha_computed(self) -> float:
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
    same bits.
    """

    def __init__(self, inst: NumInstance, V: float):
        self.inst = inst
        self.cV = inst.c * _check_V(V)
        self.floor = self.cV / inst.xmax * (1 - 4 * np.finfo(float).eps)

    def argmin(self, q: np.ndarray) -> np.ndarray:
        return np.minimum(self.cV / np.maximum(q.dot(self.inst.A), self.floor), self.inst.xmax)

    def step(self, q: np.ndarray, out: np.ndarray) -> np.ndarray:
        x = self.argmin(q)
        return np.maximum(q + (self.inst.A.dot(x) - self.inst.b), 0.0, out=out)


class ClosedFormQpOracle:
    """Inner oracle backed by the linear-system closed form (X = R^n).

    The minimizer solves 2VP x = -(V c + A'q), so it is affine in the
    queue: x(q) = x0 + K q with x0 = (2VP)^-1 (-V c) and K = (2VP)^-1 (-A');
    x0 + q K' maps one queue and a block of queue rows alike.  So is
    g(x(q)) = A x(q) - b, and the queue update is the affine map
    q' = max(M q + c0, 0) with M = I + A K and c0 = A x0 - b.  All of them
    come from one Cholesky factor; only a V at which 2VP overflows is refused.
    """

    def __init__(self, inst: QpInstance, V: float):
        # imported here so that nothing else loads scipy; the Cholesky
        # solve stays, as np.linalg.solve rounds x0, K and M differently
        import scipy.linalg

        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            H, A = 2.0 * _check_V(V) * inst.P, inst.A
        if not np.isfinite(H).all():
            raise ValueError(f"V={V:g} is too large for this program: 2VP overflows")
        cho = scipy.linalg.cho_factor(H)
        K = scipy.linalg.cho_solve(cho, -A.T)
        self.x0 = scipy.linalg.cho_solve(cho, -(V * inst.c))
        self.Kt, self.M = K.T.copy(), np.eye(len(A)) + A.dot(K)
        self.c0 = A.dot(self.x0) - inst.b

    def argmin(self, q: np.ndarray) -> np.ndarray:
        return self.x0 + q.dot(self.Kt)

    def step(self, q: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.maximum(self.M.dot(q) + self.c0, 0.0, out=out)
