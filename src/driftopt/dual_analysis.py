"""Dual-function machinery: values, gradients, Hessians, moduli and
qualification checks for the Lagrange dual of a strongly convex program.

The dual q(lam) = min_x {f(x) + lam . g(x)} is concave and, under strong
convexity of f, differentiable with gradient g(x(lam)).  Everything here is
a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ProgramSpec, _as_vector
from .oracles import NumInstance


@dataclass
class DualReport:
    """Snapshot of the dual function at one multiplier.

    ``hessian``/``Lc_estimate`` are filled only when second-order data is
    available; ``qualification`` carries the rank-condition booleans.
    """

    lam: np.ndarray
    q_value: float
    gradient: np.ndarray
    hessian: np.ndarray | None = None
    gamma: float | None = None
    Lc_estimate: float | None = None
    qualification: dict = field(default_factory=dict)


def dual_value_and_gradient(program: ProgramSpec, oracle, lam) -> tuple[float, np.ndarray]:
    """Evaluate (q(lam), grad q(lam)) via the inner-minimization oracle.

    Since the oracle minimizes V f + q . g, calling it with q = lam and
    V = 1 yields the argmin defining q(lam), whose constraint values are
    the gradient.
    """
    lam = _as_vector(lam, program.m, "lambda")
    if np.any(lam < 0):
        raise ValueError("multiplier must be nonnegative")
    x = oracle.argmin(lam, 1.0)
    gvals = program.g(x)
    return program.f(x) + float(lam @ gvals), gvals


def smoothness_modulus(sigma_F: float, c_h: float) -> float:
    """Lipschitz modulus of grad q: c_h^2 / sigma_F.

    ``sigma_F`` is the strong-convexity modulus of the inner objective and
    ``c_h`` a Frobenius-type bound on the constraint Jacobian.
    """
    if sigma_F <= 0 or c_h <= 0:
        raise ValueError("sigma_F and c_h must be positive")
    return c_h ** 2 / sigma_F


def num_dual_hessian(inst: NumInstance, lam) -> np.ndarray:
    """Dual Hessian of the rate-allocation program at an interior multiplier.

    -sum_i c_i a_i a_i^T / (lam . a_i)^2, where a_i is the i-th column of A.
    Valid when every lam . a_i > 0 (the closed-form clip is inactive).
    """
    lam = _as_vector(lam, inst.m, "lambda")
    if np.any(lam < 0):
        raise ValueError("multiplier must be nonnegative")
    denom = lam @ inst.A
    if np.any(denom <= 0):
        raise ValueError("need lam . a_i > 0 for every flow (interior regime)")
    scaled = inst.A * (inst.c / denom ** 2)  # columns a_i * c_i / (lam.a_i)^2
    return -(scaled @ inst.A.T)


def general_dual_hessian(grad_g: np.ndarray, hess_f: np.ndarray,
                         hess_g, lam) -> np.ndarray:
    """Dual Hessian -G H^{-1} G^T with H = hess_f + sum_k lam_k hess_g_k.

    ``grad_g`` is the m x n constraint Jacobian G; ``hess_g`` a sequence of
    n x n matrices (or None for affine constraints).  H must be positive
    definite.
    """
    G = np.asarray(grad_g, dtype=float)
    if G.ndim != 2:
        raise ValueError("grad_g must be an m x n matrix")
    m, n = G.shape
    lam = _as_vector(lam, m, "lambda")
    H = np.asarray(hess_f, dtype=float).copy()
    if H.shape != (n, n):
        raise ValueError("hess_f must be n x n")
    if hess_g is not None:
        for k, Hk in enumerate(hess_g):
            if Hk is not None:
                H += lam[k] * np.asarray(Hk, dtype=float)
    if np.linalg.eigvalsh(0.5 * (H + H.T)).min() <= 0:
        raise ValueError("inner Hessian f + lam . g must be positive definite")
    return -(G @ np.linalg.solve(H, G.T))


def qualification_check(A_full: np.ndarray, active_rows) -> dict:
    """Rank conditions on the constraint matrix.

    locally_quadratic: the active rows are linearly independent (the dual
    grows quadratically near the optimum).  strongly_concave: the full
    matrix has rank m (the dual Hessian is negative definite).  Numerical
    rank uses singular values above 1e-10 times the largest.
    """
    A = np.asarray(A_full, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("A_full must be a nonempty matrix")
    m = A.shape[0]
    active = sorted(int(k) for k in active_rows)
    if any(k < 0 or k >= m for k in active):
        raise ValueError("active_rows must index rows of A_full")

    def _rank(M):
        if M.size == 0:
            return 0
        sv = np.linalg.svd(M, compute_uv=False)
        return int(np.sum(sv > 1e-10 * sv.max()))

    locally_quadratic = (_rank(A[active, :]) == len(active)) if active else True
    return {"locally_quadratic": bool(locally_quadratic),
            "strongly_concave": bool(_rank(A) == m)}


def theta_bound(V: float, gamma: float, lambda0, lambda_star,
                q_at_lambda0: float, q_at_star: float) -> float:
    """Dual-gap constant: q(lam*) - q(lam(t)) <= theta / t for all t >= 1.

    theta = max(4 V^2 ||lam(0)-lam*||^2 / (2V - gamma), q(lam*) - q(lam(0))).
    Requires V >= gamma.
    """
    if V < gamma:
        raise ValueError("theta bound requires V >= gamma")
    lambda0 = np.atleast_1d(np.asarray(lambda0, dtype=float))
    lambda_star = np.atleast_1d(np.asarray(lambda_star, dtype=float))
    dist2 = float(np.sum((lambda0 - lambda_star) ** 2))
    return max(4.0 * V ** 2 * dist2 / (2.0 * V - gamma), q_at_star - q_at_lambda0)


def tq_tc_thresholds(V: float, gamma: float, lambda0_dist: float,
                     dual_gap0: float, Dq: float, Lq: float,
                     Dc: float, Lc: float) -> tuple[float, float]:
    """Iteration thresholds after which the local regimes kick in.

    Tq = max(4 V^2 d / ((2V - gamma) Lq Dq^2), gap0 / (Lq Dq^2)) for the
    locally quadratic regime; Tc = max(8 V^2 d / ((2V - gamma) Lc Dc^2),
    2 gap0 / (Lc Dc^2)) for the locally strongly concave regime, with
    d = ||lam(0) - lam*||.  Constants Dq, Lq, Dc, Lc are supplied by the
    caller (they are existential, not computed here).
    """
    if min(Dq, Lq, Dc, Lc) <= 0:
        raise ValueError("Dq, Lq, Dc, Lc must be positive")
    if V < gamma:
        raise ValueError("thresholds require V >= gamma")
    if lambda0_dist < 0 or dual_gap0 < 0:
        raise ValueError("distance and gap must be nonnegative")
    tq = max(4.0 * V ** 2 * lambda0_dist / ((2.0 * V - gamma) * Lq * Dq ** 2),
             dual_gap0 / (Lq * Dq ** 2))
    tc = max(8.0 * V ** 2 * lambda0_dist / ((2.0 * V - gamma) * Lc * Dc ** 2),
             2.0 * dual_gap0 / (Lc * Dc ** 2))
    return tq, tc


def gamma_geq_Lc_check(gamma: float, Lc: float) -> bool:
    """Consistency check: the smoothness modulus dominates the local
    strong-concavity modulus (gamma >= Lc up to rounding)."""
    if gamma <= 0 or Lc <= 0:
        raise ValueError("gamma and Lc must be positive")
    return gamma >= Lc - 1e-12


def dual_report(program: ProgramSpec, oracle, lam, *,
                hessian: np.ndarray | None = None,
                gamma: float | None = None,
                A_full: np.ndarray | None = None,
                active_rows=None) -> DualReport:
    """Assemble a DualReport at one multiplier.

    ``hessian`` and ``gamma`` are attached verbatim when given; the local
    strong-concavity estimate is the smallest-magnitude eigenvalue of the
    (negated) Hessian when it is negative definite.
    """
    q_value, gradient = dual_value_and_gradient(program, oracle, lam)
    Lc = None
    if hessian is not None:
        hessian = np.asarray(hessian, dtype=float)
        if np.abs(hessian - hessian.T).max() > 1e-10:
            raise ValueError("dual Hessian must be symmetric")
        eig = np.linalg.eigvalsh(hessian)
        if eig.max() > 1e-8:
            raise ValueError("dual Hessian must be negative semidefinite")
        if eig.max() < 0:
            Lc = float(-eig.max())  # smallest-magnitude curvature
    qual = {}
    if A_full is not None and active_rows is not None:
        qual = qualification_check(A_full, active_rows)
    return DualReport(lam=np.asarray(lam, dtype=float), q_value=q_value,
                      gradient=gradient, hessian=hessian, gamma=gamma,
                      Lc_estimate=Lc, qualification=qual)
