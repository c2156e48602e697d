"""Shared domain types: programs, virtual queues and sampled traces.

All types are immutable value objects built on numpy arrays; operations are
pure functions, so everything here is safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class ProgramSpec:
    """A strongly convex program: min f(x) s.t. g(x) <= 0, x in a set X.

    ``objective`` maps an n-vector to a scalar and ``constraints`` maps it
    to an m-vector; each also maps a (k, n) block of rows to the k row
    values, which the solver uses to evaluate a block's samples in one call.
    X is not stored: the inner oracle of each problem kind encodes it.
    ``alpha`` is the strong-convexity modulus of the objective on X;
    ``beta`` is a common Lipschitz modulus of every constraint component.
    """

    n: int
    m: int
    objective: Callable[[np.ndarray], float]
    constraints: Callable[[np.ndarray], np.ndarray]
    alpha: float
    beta: float

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")


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

    ``g_xbar`` and ``queue`` are S x m, ``x`` is S x n.  The dual columns
    are None without a reference solution; ``x`` and ``queue`` are None
    for a trace read back from its CSV.
    """

    t: np.ndarray
    f_xbar: np.ndarray
    g_xbar: np.ndarray
    qnorm: np.ndarray
    lambda_dist: np.ndarray | None = None
    dual_gap: np.ndarray | None = None
    x: np.ndarray | None = None
    queue: np.ndarray | None = None
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
