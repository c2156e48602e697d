"""Iterative solvers: drift-plus-penalty (DPP), its shifted-running-average
variant, and the classical dual subgradient method, all run by one loop.

dpp_shifted reads its window average from prefix sums of the same run, so
it makes one oracle call per iteration like dpp.  The dual subgradient
method with step c is DPP at V = 1/c with Q = lambda / c: it runs as DPP
and reports lambda = c Q.  Oracles take the queue as a raw float array.

A run is strictly sequential; distinct runs share no mutable state and may
execute concurrently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import IterateTrace, ProgramSpec, TraceSample, sample_indices
from .oracles import InnerSolveError

VARIANTS = ("dpp", "dpp_shifted", "dual_subgradient")


@dataclass
class SolverConfig:
    """Run parameters for a single solver invocation.

    ``step_c`` only applies to the dual subgradient variant and defaults to
    1/V, the choice under which it reproduces drift-plus-penalty exactly.
    """

    V: float
    q0: np.ndarray
    iters: int
    variant: str = "dpp"
    step_c: float | None = None
    sampling: str = "log"
    stride: int = 1

    def __post_init__(self):
        if self.V <= 0:
            raise ValueError("V must be positive")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        self.q0 = np.atleast_1d(np.asarray(self.q0, dtype=float))
        if np.any(self.q0 < 0):
            raise ValueError("initial queue must be nonnegative")

    @property
    def c(self) -> float:
        return self.step_c if self.step_c is not None else 1.0 / self.V


def choose_V(program: ProgramSpec, gamma: float | None = None) -> float:
    """Smallest penalty parameter covered by the convergence guarantees.

    m beta^2 / alpha for the plain guarantees; when a dual smoothness
    modulus is supplied, the shifted-average guarantees also need V >= gamma.
    """
    base = program.m * program.beta ** 2 / program.alpha
    if gamma is None:
        return base
    return max(base, gamma)


def shifted_average_window(t_plus_1: int):
    """Averaging window of the shifted scheme at iteration t+1.

    Even 2s -> the index range [s, 2s-1]; odd -> "hold" (keep the previous
    average unchanged).
    """
    if t_plus_1 < 1:
        raise ValueError("t_plus_1 must be >= 1")
    if t_plus_1 % 2 == 1:
        return "hold"
    s = t_plus_1 // 2
    return (s, 2 * s - 1)


def run(program: ProgramSpec, oracle, config: SolverConfig,
        reference=None) -> IterateTrace:
    """Execute the configured solver and return a sampled trace.

    When ``reference`` (a KktSolution) is given, each sample also records
    the dual-iterate distance ||lambda(t) - lambda*|| and the dual gap
    q(lambda*) - q(lambda(t)); the dual value at lambda(t) is exact because
    x(t) attains the inner minimum defining q.  The residual of the exact
    drift identity is checked on every iteration; x-bar, f(x-bar) and
    g(x-bar) are computed only at sampled t.

    Deterministic: identical inputs give identical traces.
    """
    floor = program.m * program.beta ** 2 / program.alpha
    if config.V < floor * (1 - 1e-12):
        warnings.warn(
            f"V={config.V:g} is below the guarantee threshold "
            f"m*beta^2/alpha={floor:g}; convergence bounds may not apply",
            stacklevel=2)
    if config.q0.shape[0] != program.m:
        raise ValueError("initial queue length must equal the constraint count")

    V = 1.0 / config.c if config.variant == "dual_subgradient" else config.V
    shifted = config.variant == "dpp_shifted"
    samples = set(sample_indices(config.iters, config.sampling, config.stride))
    # dpp_shifted: x-bar(t) = (S(2s) - S(s)) / s with s = t // 2 and
    # S(k) = sum_{tau<k} x(tau).  S(k) is kept from iteration k until the
    # last sample that reads it.
    last_read = {}
    if shifted:
        for t in sorted(samples):
            if t > 1:
                last_read[t // 2] = last_read[t // 2 * 2] = t
    saved = {}

    lam_star = None
    q_star = None
    if reference is not None:
        lam_star = np.asarray(reference.lambda_star, dtype=float)
        x_at_star = oracle.argmin(lam_star, 1.0)
        q_star = program.f(x_at_star) + float(lam_star @ program.g(x_at_star))

    argmin, constraints = oracle.argmin, program.constraints
    q = config.q0.copy()
    qq = float(q @ q)
    sum_x = np.zeros(program.n)
    max_residual = 0.0
    trace = IterateTrace(V=config.V, variant=config.variant, iters=config.iters)

    for t in range(config.iters + 1):
        try:
            x = argmin(q, V)
        except InnerSolveError as exc:
            trace.max_drift_residual = max_residual
            exc.partial_trace = trace  # everything recorded through t-1
            raise
        # program.g checks the shape of g(x) once; later steps call it raw.
        g = constraints(x) if t else program.g(x)
        if t in last_read:
            saved[t] = sum_x.copy()

        if t in samples:
            if shifted and t > 1:
                s = t // 2
                xbar = (saved[2 * s] - saved[s]) / s
                for k in (s, 2 * s):
                    if last_read[k] == t:
                        del saved[k]
            else:
                xbar = sum_x / t
            sample = TraceSample(
                t=t, x=x.copy(), xbar=xbar, queue=q.copy(),
                f_xbar=program.f(xbar), g_xbar=program.g(xbar),
                qnorm=float(np.linalg.norm(q)))
            if lam_star is not None:
                lam_t = q / V
                sample.lambda_dist = float(np.linalg.norm(lam_t - lam_star))
                sample.dual_gap = q_star - (program.f(x) + float(lam_t @ g))
            trace.append(sample)
        if t == config.iters:
            break

        # Queue update and the residual of the exact drift identity
        # L(Q') - L(Q) = Q' . g - ||Q' - Q||^2 / 2, with L(Q) = ||Q||^2 / 2.
        qn = np.maximum(q + g, 0.0)
        diff = qn - q
        qnqn = float(qn.dot(qn))
        residual = abs((0.5 * qnqn - 0.5 * qq)
                       - (float(qn.dot(g)) - 0.5 * float(diff.dot(diff))))
        if residual > max_residual:
            max_residual = residual
        sum_x += x
        q, qq = qn, qnqn
    trace.max_drift_residual = max_residual
    return trace
