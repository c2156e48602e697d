"""Iterative solvers: drift-plus-penalty (DPP) and its shifted-running-
average variant, both run by one loop.

The two variants differ only in the window [lo, hi) that sample t averages
x over: [0, t) for dpp, and the second half [t//2, 2(t//2)) for
dpp_shifted ([0, 1) at t = 1).  Both read x-bar = (S(hi) - S(lo)) / (hi - lo)
from the prefix sums S(k) = sum_{tau<k} x(tau) of one run, so each makes
one oracle call per iteration.  The dual subgradient method with step c
is DPP at V = 1/c with Q = lambda / c, so it has no loop of its own: run
DPP at V = 1/c and read lambda = Q / V.  Oracles take the queue as a raw
float array.

A run is strictly sequential; distinct runs share no mutable state and may
execute concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import IterateTrace, ProgramSpec, QueueState, sample_indices
from .dual_analysis import dual_value_and_gradient
from .oracles import InnerSolveError

VARIANTS = ("dpp", "dpp_shifted")


@dataclass
class SolverConfig:
    """Run parameters for a single solver invocation."""

    V: float
    q0: np.ndarray
    iters: int
    variant: str = "dpp"
    sample: str = "log"

    def __post_init__(self):
        if not (np.isfinite(self.V) and self.V > 0):
            raise ValueError("V must be positive and finite")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        sample_indices(1, self.sample)  # rejects a malformed spec up front
        self.q0 = QueueState(self.q0).q


def choose_V(program: ProgramSpec) -> float:
    """Smallest penalty parameter covered by the convergence guarantees,
    m beta^2 / alpha."""
    return program.m * program.beta ** 2 / program.alpha


def run(program: ProgramSpec, oracle, config: SolverConfig,
        reference=None) -> IterateTrace:
    """Execute the configured solver and return a sampled trace.

    When ``reference`` (a KktSolution) is given, each sample also records
    the dual-iterate distance ||lambda(t) - lambda*|| and the dual gap
    q(lambda*) - q(lambda(t)); the dual value at lambda(t) is exact because
    x(t) attains the inner minimum defining q.  The residual of the exact
    drift identity is checked on every iteration; x-bar, f(x-bar) and
    g(x-bar) are computed only at sampled t.  A sample with a non-finite
    value raises FloatingPointError carrying the rows before it as
    ``partial_trace``, as an InnerSolveError does.

    Deterministic: identical inputs give identical traces.
    """
    floor = choose_V(program)
    if config.V < floor * (1 - 1e-12):
        warnings.warn(
            f"V={config.V:g} is below the guarantee threshold "
            f"m*beta^2/alpha={floor:g}; convergence bounds may not apply",
            stacklevel=2)
    if config.q0.shape[0] != program.m:
        raise ValueError("initial queue length must equal the constraint count")

    V = config.V
    ts = sample_indices(config.iters, config.sample)
    # Sample i averages x over the window [lo[i], hi[i]).
    hi = np.array(ts)
    if config.variant == "dpp_shifted":
        hi = np.maximum(hi // 2 * 2, 1)  # [t//2, 2(t//2)), and [0, 1) at t = 1
        lo = hi // 2
    else:
        lo = np.zeros_like(hi)
    # prefix[j] holds S(ends[j]) from iteration ends[j] on.
    ends = np.unique(np.concatenate([lo, hi]))
    lo_row, hi_row, width = np.searchsorted(ends, lo), np.searchsorted(ends, hi), hi - lo
    ends = ends.tolist()

    # Row i of every column holds sample ts[i].
    S, n, m = len(ts), program.n, program.m
    prefix = np.empty((len(ends), n))
    f_xbar, qnorm = np.empty(S), np.empty(S)
    g_xbar, queue = np.empty((S, m)), np.empty((S, m))
    xs, xbars = np.empty((S, n)), np.empty((S, n))
    lambda_dist = dual_gap = lam_star = None
    if reference is not None:
        lambda_dist, dual_gap = np.empty(S), np.empty(S)
        lam_star = np.asarray(reference.lambda_star, dtype=float)
        q_star, _ = dual_value_and_gradient(program, oracle, lam_star)

    def trace(rows: int) -> IterateTrace:
        return IterateTrace(
            t=ts[:rows], f_xbar=f_xbar[:rows], g_xbar=g_xbar[:rows],
            qnorm=qnorm[:rows],
            lambda_dist=None if lambda_dist is None else lambda_dist[:rows],
            dual_gap=None if dual_gap is None else dual_gap[:rows],
            x=xs[:rows], xbar=xbars[:rows], queue=queue[:rows],
            V=V, max_drift_residual=max_residual)

    argmin, objective, constraints = oracle.argmin, program.objective, program.constraints
    q = config.q0.copy()
    qq = float(q @ q)
    sum_x = np.zeros(n)
    max_residual = 0.0
    i, next_t = 0, ts[0]
    j, next_end = 0, ends[0]

    for t in range(config.iters + 1):
        try:
            x = argmin(q, V)
        except InnerSolveError as exc:
            exc.partial_trace = trace(i)  # everything recorded through t-1
            raise
        # program.g checks the shape of g(x) once; later steps call it raw.
        g = constraints(x) if t else program.g(x)
        if t == next_end:
            prefix[j] = sum_x
            j += 1
            next_end = ends[j] if j < len(ends) else -1

        if t == next_t:
            xbar = (prefix[hi_row[i]] - prefix[lo_row[i]]) / width[i]
            xs[i], xbars[i], queue[i] = x, xbar, q
            f_xbar[i], g_xbar[i] = objective(xbar), constraints(xbar)
            # np.linalg.norm(v) of a 1-D float vector is sqrt(v.dot(v)).
            qnorm[i] = math.sqrt(qq)
            if lam_star is not None:
                lam_t = q / V
                d = lam_t - lam_star
                lambda_dist[i] = math.sqrt(d.dot(d))
                dual_gap[i] = q_star - (objective(x) + float(lam_t @ g))
            i += 1
            next_t = ts[i] if i < S else -1
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

    finite = np.ones(S, dtype=bool)
    for column in (f_xbar, g_xbar, qnorm, lambda_dist, dual_gap, xs, xbars, queue):
        if column is not None:
            finite &= np.isfinite(column.reshape(S, -1)).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        exc = FloatingPointError(f"non-finite value in the sample at t = {ts[bad]}")
        exc.partial_trace = trace(bad)
        raise exc
    return trace(S)
