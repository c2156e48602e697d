"""Dual-function machinery: values, gradients, Hessians and moduli for the
Lagrange dual of a strongly convex program.

The dual q(lam) = min_x {f(x) + lam . g(x)} is concave and, under strong
convexity of f, differentiable with gradient g(x(lam)).  Everything here is
a pure function of immutable inputs.
"""

from __future__ import annotations

import numpy as np

from .core import ProgramSpec, _as_vector
from .oracles import NumInstance


def dual_value_and_gradient(program: ProgramSpec, oracle, lam) -> tuple[float, np.ndarray]:
    """Evaluate (q(lam), grad q(lam)) via the inner-minimization oracle.

    ``oracle`` is the factory V -> oracle.  Since the oracle minimizes
    V f + q . g, the one built at V = 1, called with q = lam, yields the
    argmin defining q(lam), whose constraint values are the gradient.
    """
    lam = _as_vector(lam, program.m, "lambda")
    if np.any(lam < 0):
        raise ValueError("multiplier must be nonnegative")
    x = oracle(1.0).argmin(lam)
    gvals = program.constraints(x)
    return float(program.objective(x)) + float(lam @ gvals), gvals


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


def general_dual_hessian(grad_g: np.ndarray, hess_f: np.ndarray) -> np.ndarray:
    """Dual Hessian -G H^{-1} G^T of a program with affine constraints.

    ``grad_g`` is the m x n constraint Jacobian G and ``hess_f`` the n x n
    objective Hessian H, which must be positive definite.
    """
    G = np.asarray(grad_g, dtype=float)
    if G.ndim != 2:
        raise ValueError("grad_g must be an m x n matrix")
    n = G.shape[1]
    H = np.asarray(hess_f, dtype=float)
    if H.shape != (n, n):
        raise ValueError("hess_f must be n x n")
    if np.linalg.eigvalsh(0.5 * (H + H.T)).min() <= 0:
        raise ValueError("hess_f must be positive definite")
    return -(G @ np.linalg.solve(H, G.T))


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
    # V / (2V - gamma) <= 1 is formed first, so no V^2 overflows.
    return max(4.0 * V * dist2 * (V / (2.0 * V - gamma)), q_at_star - q_at_lambda0)

