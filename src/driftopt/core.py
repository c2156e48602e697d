"""Shared domain types: programs, virtual queues and sampled traces.

``ProgramSpec`` is the base of every problem kind: it checks and stores
the linear constraints and the moduli alpha and beta that the guarantees
need.  Programs and queues are immutable value objects and the functions
are pure; a trace is a mutable record whose constructor normalizes its
``t`` column.
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
    set X, with costs c, and A a finite m x n matrix (m, n >= 1); A, b and
    c are stored read-only.

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
    ``alpha_computed`` and the largest row norm of A.
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
        self._check_kind()
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.alpha_computed)
        if self.beta is None:
            object.__setattr__(self, "beta", float(np.linalg.norm(self.A, axis=1).max()))
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def constraints(self, x: np.ndarray) -> np.ndarray:
        """g(x) = Ax - b of an n-vector, or of each row of a (k, n) block."""
        return self.A.dot(x.T).T - self.b


@dataclass(frozen=True)
class QueueState:
    """Finite, nonnegative virtual queue vector, one entry per constraint."""

    q: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.q, name="queue")
        if not np.all(np.isfinite(arr)):
            raise ValueError("queue entries must be finite")
        if np.any(arr < 0):
            raise ValueError("queue entries must be nonnegative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "q", arr)


@dataclass
class IterateTrace:
    """Sampled history of a solver run, one row per sampled iteration t >= 1,
    plus run-level summary quantities.

    ``g_xbar`` is S x m, the other columns have length S; the dual columns
    are None without a reference solution.  These are the CSV's columns, so
    a trace read back from its CSV is whole.
    """

    t: np.ndarray
    f_xbar: np.ndarray
    g_xbar: np.ndarray
    qnorm: np.ndarray
    lambda_dist: np.ndarray | None = None
    dual_gap: np.ndarray | None = None
    V: float = 1.0
    max_drift_residual: float = 0.0

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=int)
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("trace iteration indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)


# Samples per decade of t under log sampling.
PER_DECADE = 200

_SAMPLE_SPEC = re.compile(r"log|linear(?::([0-9]+))?")


def sample_indices(iters: int, sample: str = "log") -> list[int]:
    """Iteration indices to record under the sample spec ``sample``: ~log-
    spaced for "log", every k steps for "linear:<k>" (k = 1 for "linear"),
    always ending at ``iters``.  Any other spec raises ValueError."""
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
        idx = [int(t) for t in raw if 1 <= t <= iters]
    else:
        idx = list(range(stride, iters + 1, stride))
    if not idx or idx[-1] != iters:
        idx.append(iters)
    return idx
