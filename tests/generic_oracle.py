"""A generic inner oracle, the independent check the closed forms are tested
against: projected gradient with Barzilai-Borwein steps on any program
with analytic derivatives; a generic program given by callables; and the
NUM and QP queue steps written as loops over Python floats, the checks of
the steps that the closed-form oracles generate."""

from dataclasses import dataclass
from typing import Callable

import numpy as np


class GenericOracleError(RuntimeError):
    """The generic oracle lacks derivatives, or found no minimizer to its
    tolerance."""


@dataclass(frozen=True)
class GenericProgram:
    """A program given by its callables and moduli: the members that the
    solver and the generic oracle read, with no problem kind behind them.
    ``objective`` and ``constraints`` take an n-vector or a (k, n) block."""

    n: int
    m: int
    objective: Callable[[np.ndarray], float]
    constraints: Callable[[np.ndarray], np.ndarray]
    alpha: float
    beta: float


class ProjectedGradientOracle:
    """Minimizes phi(x) = V f(x) + q . g(x) over the box [lower, upper]
    (use +-inf entries for unbounded coordinates), given the gradient of f
    and the Jacobian of g of ``program``.  Terminates when the gradient-map
    norm ||x - P(x - s grad)|| / s with reference step s drops below
    ``tol`` within ``MAX_STEPS`` steps.

    Like the closed forms it is built for one V, takes one queue or a
    (k, m) block of queues (one solve per row), and steps the queue by
    argmin, then constraints, then the clamp at 0.
    """

    MAX_STEPS = 200_000

    def __init__(self, program, V: float, lower, upper, objective_grad=None,
                 constraints_jac=None, tol: float = 1e-10):
        if not (np.isfinite(V) and V > 0):
            raise ValueError("V must be positive and finite")
        self.program, self.V = program, V
        self.lower = np.broadcast_to(np.asarray(lower, dtype=float), (program.n,))
        self.upper = np.broadcast_to(np.asarray(upper, dtype=float), (program.n,))
        self.objective_grad, self.constraints_jac = objective_grad, constraints_jac
        self.tol = tol

    def argmin(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.ndim == 2:
            return np.array([self.argmin(row) for row in q]).reshape(len(q), self.program.n)
        program, tol, V = self.program, self.tol, self.V
        if self.objective_grad is None or self.constraints_jac is None:
            raise GenericOracleError("generic oracle needs objective_grad and constraints_jac")

        def phi(x):
            # f is +inf where a NUM rate is 0 (log 0); the line search
            # rejects such a step
            with np.errstate(divide="ignore"):
                return V * program.objective(x) + float(q @ program.constraints(x))

        def grad(x):
            return V * self.objective_grad(x) + self.constraints_jac(x).T @ q

        lo, hi = self.lower, self.upper
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
                raise GenericOracleError("line search failed in generic inner oracle")
            g_new = grad(x_new)
            dx, dg = x_new - x, g_new - gx
            denom = float(dx @ dg)
            step = float(dx @ dx) / denom if denom > 0 else s_ref
            step = min(max(step, 1e-3 * s_ref), 1e6 * s_ref)
            x, gx, fx = x_new, g_new, f_new
        raise GenericOracleError(
            f"generic inner oracle did not reach tol={tol} within {self.MAX_STEPS} steps")

    def steps(self, Q: np.ndarray) -> None:
        for t in range(len(Q) - 1):
            g = self.program.constraints(self.argmin(Q[t]))
            np.maximum(Q[t] + g, 0.0, out=Q[t + 1])


def generic_oracle(bundle, tol: float = 1e-10):
    """The factory V -> generic oracle on a builtin or problem-file bundle,
    with the box and the analytic derivatives of its kind: NUM rates in
    [0, xmax], QP points in R^n."""
    inst = bundle.program
    if bundle.kind == "num":
        lower, upper = 0.0, inst.xmax
        grad = lambda x: -inst.c / x
    else:
        lower, upper = -np.inf, np.inf
        grad = lambda x: 2.0 * (inst.P @ x) + inst.c
    return lambda V: ProjectedGradientOracle(bundle.program, V, lower, upper, grad,
                                             lambda x: inst.A, tol=tol)


def num_step_in_index_order(oracle, q):
    """One NUM queue step max(q + A x(q) - b, 0) of the closed-form oracle
    ``oracle``, on Python floats with every sum taken in index order."""
    A, b, xmax = oracle.inst.A.tolist(), oracle.inst.b.tolist(), oracle.inst.xmax.tolist()
    cV, floor, q = oracle.cV.tolist(), oracle.floor.tolist(), list(map(float, q))
    m, n = len(A), len(A[0])
    x = []
    for i in range(n):
        s = 0.0
        for k in range(m):
            if A[k][i]:
                s += q[k]
        x.append(min(cV[i] / max(s, floor[i]), xmax[i]))
    out = []
    for k in range(m):
        load = 0.0
        for i in range(n):
            if A[k][i]:
                load += x[i]
        out.append(max(q[k] + (load - b[k]), 0.0))
    return np.array(out)


def qp_step_in_index_order(oracle, q):
    """One QP queue step max(M q + c0, 0) of the closed-form oracle
    ``oracle``, on Python floats with every sum taken in index order over
    every entry of M."""
    M, c0, q = oracle.M.tolist(), oracle.c0.tolist(), list(map(float, q))
    out = []
    for row, c in zip(M, c0):
        y = row[0] * q[0]
        for j in range(1, len(q)):
            y += row[j] * q[j]
        out.append(max(y + c, 0.0))
    return np.array(out)
