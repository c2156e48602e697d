"""Iterative solvers: drift-plus-penalty (DPP) and its shifted-running-
average variant, both run by one loop.

The two variants differ only in the window [lo, hi) that sample t averages
x over: [0, t) for dpp, and the second half [t//2, 2(t//2)) for
dpp_shifted ([0, 1) at t = 1).  Both read x-bar = (S(hi) - S(lo)) / (hi - lo)
from the prefix sums S(k) = sum_{tau<k} x(tau) of one run.  The dual
subgradient method with step c is DPP at V = 1/c with Q = lambda / c, so
it has no loop of its own: run DPP at V = 1/c and read lambda = Q / V.
Oracles take the queue as a raw float array.

Only the queue of the recurrence x(t) = argmin V f + Q(t) . g, Q(t+1) =
max(Q(t) + g(x(t)), 0) is sequential: x(t) and g(x(t)) are functions of
Q(t).  ``run`` steps Q alone over blocks of _BLOCK iterations:
``_step_to_fixed_point`` has ``oracle.steps`` fill a block one step and
then _CHUNK at a time, until a chunk ends on a row bitwise its
predecessor, the queue's fixed point, whose row fills the rest of the
block.  The run's ``_Recorder`` then rebuilds the block's x and g rows
with one ``oracle.argmin`` and one constraints call, checks the drift
identity of every step, and fills the prefix sums and the sampled rows,
calling f and g once each on the block's new x-bar rows.  x, g and the
drift residual are rebuilt only through the fixed point's first row (two
rows at least) and copied on, so a block past the fixed point costs one
step, two rows rebuilt, and the block's cumsum, samples and copies.  A
full rebuild computes each row past the fixed point anew, and BLAS may
round a row apart with its place in the call and the call's row count,
so a copy may differ from it in the last bits (the builtins' traces are
bitwise the same).  A non-finite sample ends the run at the end of its
block.

A run is strictly sequential and steps an oracle of its own, built at its
V; distinct runs share no mutable state and may execute concurrently.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import IterateTrace, ProgramSpec, _as_queue, _as_vector, _check_V, sample_indices
from .dual_analysis import dual_value_and_gradient

VARIANTS = ("dpp", "dpp_shifted")

# Iterations per block of the kernel.  Each block pays one flush.  A block
# past the queue's fixed point, whose flush rebuilds two rows, took
# 0.26-0.40 ms of run on num_6_1 and qp_6_2, against 0.50-0.84 ms when it
# rebuilt all 4096 (2-core x86-64, Python 3.11.7, numpy 2.4.6, 5 medians
# of 9 each).  In-process run time when every flush rebuilt every row, summed over
# the 3 builtins x {dpp, dpp_shifted} on the same machine, medians of 9
# interleaved runs, at blocks of 1024 / 2048 / 4096 / 8192: 62.7 / 55.3 /
# 55.7 / 56.5 ms at 1e4 log-sampled iterations, 97.4 / 90.4 / 93.2 / 92.5
# ms at 1e4 linear ones and 225 / 182 / 158 / 154 ms at 1e5 log-sampled ones.
_BLOCK = 4096

# Steps between two checks for the queue's fixed point.  Per generated step
# over 4096-step blocks before any fixed point, on the machine above,
# medians of 15 interleaved runs, against one call per block: +10% at 64,
# +4% at 128, +1% at 256 and 512 on num_6_1 and num_5_2_rank_deficient; a
# larger chunk steps further past the point.  With the struct.pack
# hand-off, two rounds on num_6_1, num_5_2_rank_deficient and qp_6_2
# (2000-step blocks): +4 to +20% at 64, -2 to +12% at 128, -9 to +5% at
# 256 and -12 to +1% at 512.
_CHUNK = 256


def choose_V(program: ProgramSpec) -> float:
    """Smallest penalty parameter covered by the convergence guarantees,
    m beta^2 / alpha."""
    return program.m * program.beta ** 2 / program.alpha


def _step_to_fixed_point(steps, Q: np.ndarray) -> int | None:
    """Fill rows 1..k of the (k + 1, m) block Q, k >= 1, from row 0 by
    ``steps``, one step and then ``_CHUNK`` at a time.  A row that ends a
    chunk equal in its bytes to the row before it (0.0 and -0.0 differ, as
    they do as inputs to a step) is the queue's fixed point: it fills the
    rest of the block, and the chunk's first row that its successor
    repeats, p, is returned; None if the block never reaches it."""
    for t in (0, *range(1, len(Q) - 1, _CHUNK)):
        chunk = Q[t:t + (_CHUNK if t else 1) + 1]
        steps(chunk)
        if chunk[-1].tobytes() == chunk[-2].tobytes():
            bits = chunk.view(np.int64)
            p = t + int((bits[1:] == bits[:-1]).all(axis=1).argmax())
            Q[t + len(chunk):] = chunk[-1]
            return p
    return None


class _Recorder:
    """The per-block pass of one run: each call rebuilds a block's x and g
    rows, checks the drift identity of its steps, adds its x rows to the
    prefix sums and fills the samples it holds.  ``dual`` is (lambda*,
    q(lambda*)), or None for a run without a reference."""

    def __init__(self, program, argmin, *, V, ts, variant, iters, block, dual):
        # Sample i averages x over the window [lo[i], hi[i]).
        hi = ts
        if variant == "dpp_shifted":
            hi = np.maximum(hi // 2 * 2, 1)  # [t//2, 2(t//2)), and [0, 1) at t = 1
            lo = hi // 2
        else:
            lo = np.zeros_like(hi)
        # The distinct window ends in order (np.unique hashes: 6x slower than a
        # sort); prefix[j] holds S(ends[j]) once a block has passed ends[j].
        ends = np.sort(np.concatenate([lo, hi]))
        self.ends = ends = ends[np.append(True, ends[1:] != ends[:-1])]
        self.lo_row, self.hi_row = np.searchsorted(ends, lo), np.searchsorted(ends, hi)
        self.width, self.prefix = hi - lo, np.empty((len(ends), program.n))

        # Row i of every column of ``out`` holds sample ts[i]; X and G,
        # rebuilt from a block's Q, hold x(t0 + s) and g(x(t0 + s)) in row s.
        # They are C-ordered, so the row-wise dots of the drift identity sum
        # as one-row dots do.
        S, n, m = len(ts), program.n, program.m
        self.out = IterateTrace(t=ts, f_xbar=np.empty(S), g_xbar=np.empty((S, m)),
                                qnorm=np.empty(S), V=V)
        if dual is not None:
            self.out.lambda_dist, self.out.dual_gap = np.empty(S), np.empty(S)
        self.X, self.G = np.empty((block, n)), np.empty((block, m))
        self.sum_x, self.i, self.j = np.zeros(n), 0, 0
        self.program, self.argmin, self.iters, self.dual = program, argmin, iters, dual

    def __call__(self, Q: np.ndarray, p: int | None, t0: int) -> None:
        """Record steps t0 .. t0 + k - 1 from the (k + 1, m) block Q that
        holds Q(t0 .. t0 + k), and from its row p on (p None: nowhere) the
        queue's fixed point: their x and g, rebuilt from Q(t0 .. t0 + k -
        1), their drift residuals, S at the window ends up to t0 + k, and
        the samples at t < t0 + k."""
        k, X, G, out, ts = len(Q) - 1, self.X, self.G, self.out, self.out.t
        objective, constraints = self.program.objective, self.program.constraints
        # Rows from the fixed point's first row p on are bitwise row p, so
        # their x, g and ||Q||^2 are taken as row p's: rows 0..b - 1 of X
        # and G and 0..b of qq are rebuilt, and the last of them copied on.
        # b is at least 2 where the block has 2 rows: numpy sends a one-row
        # block to gemv, whose sums may round apart from the k-row gemm's
        # of a full rebuild.
        b = k if p is None else min(k, max(p + 1, 2))
        X[:b] = self.argmin(Q[:b])
        G[:b] = constraints(X[:b])
        X[b:k], G[b:k] = X[b - 1], G[b - 1]
        qq = np.empty(k + 1)
        qq[:b + 1] = np.vecdot(Q[:b + 1], Q[:b + 1])
        qq[b + 1:] = qq[b]
        # Residual of the exact drift identity L(Q') - L(Q) = Q' . g -
        # ||Q' - Q||^2 / 2, with L(Q) = ||Q||^2 / 2, for every step whose
        # update is read (t < iters); from the fixed point on, every step's
        # is step p's.  fmax skips NaN residuals.
        r = min(b, self.iters - t0)
        Qn, Qo = Q[1:r + 1], Q[:r]
        D = Qn - Qo
        residual = np.abs((0.5 * qq[1:r + 1] - 0.5 * qq[:r])
                          - (np.vecdot(Qn, G[:r]) - 0.5 * np.vecdot(D, D)))
        out.max_drift_residual = float(np.fmax.reduce(residual, initial=out.max_drift_residual))

        # cumsum adds the rows in order, as a running sum_x += x would.
        C = np.cumsum(np.vstack([self.sum_x, X[:k]]), axis=0)  # C[c] = S(t0 + c)
        self.sum_x, j = C[k], self.j
        self.j = np.searchsorted(self.ends, t0 + k, side="right")
        self.prefix[j:self.j] = C[self.ends[j:self.j] - t0]

        i0 = self.i
        self.i = np.searchsorted(ts, t0 + k)  # a block may hold no sample
        new, rows = slice(i0, self.i), ts[i0:self.i] - t0
        # np.linalg.norm(v) of a 1-D float vector is sqrt(v.dot(v)), and
        # vecdot of a row is bitwise its dot.
        out.qnorm[new] = np.sqrt(qq[rows])
        xbar = ((self.prefix[self.hi_row[new]] - self.prefix[self.lo_row[new]])
                / self.width[new, None])
        out.f_xbar[new], out.g_xbar[new] = objective(xbar), constraints(xbar)
        if self.dual is not None:
            lam_star, q_star = self.dual
            lam_t = Q[rows] / out.V
            d = lam_t - lam_star
            out.lambda_dist[new] = np.sqrt(np.vecdot(d, d))
            out.dual_gap[new] = q_star - (objective(X[rows]) + np.vecdot(lam_t, G[rows]))
        columns = (out.f_xbar, out.g_xbar, out.qnorm, out.lambda_dist, out.dual_gap)
        finite = np.isfinite(np.column_stack([c[new] for c in columns if c is not None]))
        if not finite.all():
            bad = i0 + int(np.argmin(finite.all(axis=1)))
            exc = FloatingPointError(f"non-finite value in the sample at t = {ts[bad]}")
            exc.partial_trace = self.trace(bad)
            raise exc

    def trace(self, rows: int) -> IterateTrace:
        """The trace of the first ``rows`` samples."""
        return IterateTrace(**{name: c[:rows] if isinstance(c, np.ndarray) else c
                               for name, c in vars(self.out).items()})


def run(program: ProgramSpec, oracle, *, V: float, q0, iters: int,
        variant: str = "dpp", sample: str = "log", reference=None) -> IterateTrace:
    """Run ``variant`` for ``iters`` steps from the initial queue ``q0`` at
    the penalty ``V``, stepping the inner oracle that the factory
    ``oracle`` builds at V, and return the trace sampled where the spec
    ``sample`` says.  Each parameter is checked once, before the first
    step, and a V below the guarantee threshold warns.  The trace keeps
    ||Q(t)||, not x(t) or Q(t), which the oracle's steps from q0 give again.
    The oracle's step must be a pure function of the bits of Q(t): once a
    step leaves Q bitwise unchanged, the run copies that row on, unstepped.

    When ``reference`` (a KktSolution) is given, each sample also records
    the dual-iterate distance ||lambda(t) - lambda*|| and the dual gap
    q(lambda*) - q(lambda(t)); the dual value at lambda(t) is exact because
    x(t) attains the inner minimum defining q.  The residual of the exact
    drift identity, between the oracle's queue step and the constraint
    values of the rebuilt x, is checked on every iteration, once per
    block; x-bar, f(x-bar) and g(x-bar) are computed only at sampled t,
    with one call of f and one of g per block.  The shape of g(x) is
    checked once, at x(Q(0)), before the first step.  An oracle that
    cannot be built at V raises before the first step.  The arithmetic
    runs with numpy's floating-point warnings off: a sample with a
    non-finite value ends the run at the end of its block, and the
    FloatingPointError carries the samples before it and the residuals
    of the steps through that block as ``partial_trace``.

    Deterministic: identical inputs give identical traces.
    """
    _check_V(V)
    ts = np.fromiter(sample_indices(iters, sample), int)
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    q0 = _as_queue(q0)
    floor = choose_V(program)
    if V < floor * (1 - 1e-12):
        warnings.warn(
            f"V={V:g} is below the guarantee threshold "
            f"m*beta^2/alpha={floor:g}; convergence bounds may not apply",
            stacklevel=2)
    if q0.shape[0] != program.m:
        raise ValueError("initial queue length must equal the constraint count")

    # Step t0 + s of a block writes Q(t0 + s + 1) into row s + 1 of Q; Q[0]
    # holds Q(t0).
    block = min(_BLOCK, iters + 1)
    Q = np.empty((block + 1, program.m))
    Q[0] = q0
    k, dual = 0, None
    # numpy's floating-point warnings are off from here on: the sample
    # check reports a non-finite value as a FloatingPointError.
    with np.errstate(all="ignore"):
        if reference is not None:
            lam_star = np.asarray(reference.lambda_star, dtype=float)
            dual = lam_star, dual_value_and_gradient(program, oracle, lam_star)[0]
        inner = oracle(V)
        _as_vector(program.constraints(inner.argmin(Q[0])), program.m, "g(x)")
        record = _Recorder(program, inner.argmin, V=V, ts=ts, variant=variant,
                           iters=iters, block=block, dual=dual)
        for t0 in range(0, iters + 1, block):
            Q[0] = Q[k]
            k = min(block, iters + 1 - t0)
            p = _step_to_fixed_point(inner.steps, Q[:k + 1])
            record(Q[:k + 1], p, t0)
    return record.trace(len(ts))
