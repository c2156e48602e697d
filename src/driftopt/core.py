"""Shared domain types: programs and their Lagrange duals, virtual queues
and sampled traces.

``ProgramSpec`` is the base of every problem kind: it checks and stores
the linear constraints and the moduli alpha and beta that the guarantees
need.  The dual q(lam) = min_x {f(x) + lam . g(x)} is concave and, as f
is strongly convex, differentiable with gradient g(x(lam)).  Programs are
immutable value objects, a queue is a checked read-only array
(``_as_queue``) and the functions are pure; a trace is a mutable record
whose constructor checks and normalizes its ``t`` column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np


class DimensionError(ValueError):
    """Raised when vector/matrix shapes do not match the program dimensions."""


def _as_vector(v, length: int | None = None, name: str = "vector") -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise DimensionError(f"{name} has length {arr.shape[0]}, expected {length}")
    return arr


def _check_V(V: float) -> float:
    if not (np.isfinite(V) and V > 0):
        raise ValueError("V must be positive and finite")
    return V


def _set_finite_readonly(obj, **fields: np.ndarray) -> None:
    """Store a read-only copy of each finite field on the frozen ``obj``;
    the caller's own arrays stay writeable."""
    for name, val in fields.items():
        if not np.all(np.isfinite(val)):
            raise ValueError(f"{name} must be finite (found NaN or inf)")
        val = np.array(val, order="C")
        val.flags.writeable = False
        object.__setattr__(obj, name, val)


@dataclass(frozen=True)
class ProgramSpec:
    """A strongly convex program: min f(x) s.t. g(x) = Ax - b <= 0, x in a
    set X, with costs c, and A a finite m x n matrix (m, n >= 1) whose
    ||A||_F^2 is a finite float; A, b and c are stored read-only.

    Each problem kind is a frozen subclass that declares A, b and c in its
    own order, defines ``objective`` and checks its own fields in
    ``_check_kind``, which runs after the A, b and c checks.  ``objective``
    maps an n-vector to a scalar and ``constraints`` maps it to an
    m-vector; each also maps a (k, n) block of rows to the k row values,
    k = 0 included, which the solver uses to evaluate a block's samples in
    one call.  X is not stored: the inner oracle of each kind encodes it.

    ``alpha`` is the strong-convexity modulus of the objective on X and
    ``beta`` a common Lipschitz modulus of every constraint component.
    None, their default, means the computed value: the kind's
    ``alpha_computed`` and the largest row norm of A.  Both must be
    positive, and alpha finite.
    """

    alpha: float | None = field(default=None, kw_only=True)
    beta: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim in (1, 2) and A.shape[0] == 0:
            raise ValueError("A needs at least one constraint row")
        if A.ndim != 2:
            raise DimensionError("A must be a matrix")
        m, n = A.shape
        if n == 0:
            raise ValueError("A needs at least one column")
        c, b = _as_vector(self.c, n, "c"), _as_vector(self.b, m, "b")
        _set_finite_readonly(self, A=A, b=b, c=c)
        # beta and the dual modulus gamma are sums of squares of A: an A
        # too large for them is refused, not warned of
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(A ** 2)):
                raise ValueError("A is too large: ||A||_F^2 overflows")
        self._check_kind()
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.alpha_computed)
        if self.beta is None:
            object.__setattr__(self, "beta", float(np.linalg.norm(self.A, axis=1).max()))
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")
        if not np.isfinite(self.alpha):  # c_i / xmax_i^2 of an xmax_i^2 that underflows
            raise ValueError("alpha must be finite")

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def constraints(self, x: np.ndarray) -> np.ndarray:
        """g(x) = Ax - b of an n-vector, or of each row of a (k, n) block."""
        return self.A.dot(x.T).T - self.b


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


def num_dual_hessian(inst: ProgramSpec, lam) -> np.ndarray:
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


def _as_queue(q) -> np.ndarray:
    """A read-only copy of the virtual queue vector ``q``, one finite,
    nonnegative entry per constraint."""
    arr = _as_vector(q, name="queue").copy()
    if not np.all(np.isfinite(arr)):
        raise ValueError("queue entries must be finite")
    if np.any(arr < 0):
        raise ValueError("queue entries must be nonnegative")
    arr.flags.writeable = False
    return arr


QueueState = _as_queue  # the name perfbench/tracing.py looks up (ROADMAP item 1)


def _check_t(t, name: str) -> np.ndarray:
    """``t`` as an array, if it holds integers 1 <= t_1 < t_2 < ... <= 2**53, each
    exact as a double, as a solve writes them; else a ValueError naming ``name``."""
    t = np.asarray(t)
    if not np.all((t >= 1) & (t == np.floor(t))):  # NaN fails here
        raise ValueError(f"{name} must hold integers >= 1")
    if np.any(t > 2**53):  # +inf fails here; an int, as int64 2**53 + 1 <= 2.0**53
        raise ValueError(f"{name} must be at most 2**53")
    if np.any(np.diff(t) <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    return t


@dataclass
class IterateTrace:
    """Sampled history of a solver run, one row per sampled iteration t >= 1,
    plus run-level summary quantities.

    ``g_xbar`` is S x m, the other columns have length S; ``f_err``,
    |f_xbar - f*|, and the dual columns are None without a reference.
    ``columns`` lays them out as the CSV's and ``from_columns`` reads them back.
    """

    t: np.ndarray
    f_xbar: np.ndarray
    g_xbar: np.ndarray
    qnorm: np.ndarray
    f_err: np.ndarray | None = None
    lambda_dist: np.ndarray | None = None
    dual_gap: np.ndarray | None = None
    V: float = 1.0
    max_drift_residual: float = 0.0

    def __post_init__(self):
        self.t = np.asarray(_check_t(self.t, "trace iteration indices t"), dtype=int)

    def __len__(self) -> int:
        return len(self.t)

    def columns(self) -> dict:
        """The CSV's columns by header name, in order (t, f_avg, f_err,
        g_1..g_m, qnorm, lambda_dist, dual_gap), None where the trace has none."""
        return {"t": self.t, "f_avg": self.f_xbar, "f_err": self.f_err,
                **{f"g_{k + 1}": g for k, g in enumerate(self.g_xbar.T)},
                "qnorm": self.qnorm, "lambda_dist": self.lambda_dist, "dual_gap": self.dual_gap}

    @classmethod
    def from_columns(cls, cols: dict, m: int, V: float) -> IterateTrace:
        """The trace at penalty ``V`` of the ``columns`` of m constraints in
        ``cols``; one that is None or missing is None, and must not be t, f_avg,
        a g_k or qnorm.  A ``g_{m+1}`` is refused."""
        g = [cols.get(f"g_{k + 1}") for k in range(m)]
        if any(c is None for c in (cols.get("t"), cols.get("f_avg"), cols.get("qnorm"), *g)):
            raise ValueError("trace CSV lacks required columns")
        if f"g_{m + 1}" in cols:
            raise ValueError(f"trace CSV has a column 'g_{m + 1}', but the problem has m = {m}")
        return cls(t=cols["t"], f_xbar=cols["f_avg"], f_err=cols.get("f_err"),
                   g_xbar=np.stack(g, axis=1), qnorm=cols["qnorm"],
                   lambda_dist=cols.get("lambda_dist"), dual_gap=cols.get("dual_gap"), V=V)


# Samples per decade of t under log sampling.
PER_DECADE = 200

_SAMPLE_SPEC = re.compile(r"log|linear(?::([0-9]+))?")


def sample_indices(iters: int, sample: str = "log") -> np.ndarray:
    """Iteration indices to record under the sample spec ``sample``, as an
    int64 array: ~log-spaced for "log", every k steps for "linear:<k>" (k = 1
    for "linear"), always ending at ``iters``, which must lie in [1, 2**53],
    where a trace's t does.  Any other spec raises ValueError; a linear
    schedule too large for memory raises MemoryError."""
    if iters > 2**53:  # before a log of a huge int
        raise ValueError("iters must be at most 2**53")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    match = _SAMPLE_SPEC.fullmatch(sample)
    stride = int(match[1] or 1) if match else 0
    if stride < 1:
        raise ValueError(f"sample spec must be 'log', 'linear' or 'linear:<k>' "
                         f"with an integer k >= 1, not {sample!r}")
    if sample == "log":
        decades = np.log10(max(iters, 2))
        raw = np.unique(np.round(10 ** np.linspace(0, decades, int(PER_DECADE * decades) + 1)))
        idx = raw[(raw >= 1) & (raw <= iters)].astype(np.int64)
    else:
        idx = np.arange(stride, iters + 1, stride, dtype=np.int64)
    if not idx.size or idx[-1] != iters:
        idx = np.append(idx, iters)
    return idx
