"""Inner-minimization oracles: argmin over the box of V*f(x) + q.g(x).

One closed form per problem kind: log-utility rate allocation and the
unconstrained quadratic.  Each kind's instance is a ``core.ProgramSpec``
that adds its own fields, checks and objective, and its computed alpha.
An oracle is built for one instance and one penalty ``V``, a constant of
the DPP run, and computes its per-V constants then; only a bad V can make
that fail, as the instance checks what holds at every V, such as the
QP's conditioning.  It takes queues as raw nonnegative float arrays and
has two methods, which leave it as built:

- ``argmin(q)``: x(q) for one queue (m,), or the (k, n) rows x(q_i) of a
  (k, m) block of queues;
- ``steps(Q)``: the DPP queue updates Q(t+1) = max(Q(t) + g(x(Q(t))), 0)
  of a (k + 1, m) block, filling rows 1..k from row 0.

An oracle's first ``steps`` call generates a straight-line Python step for
its instance's shape, with its constants bound, or, above a size bound or
at a NUM floor of 0.0, steps with numpy one row at a time.  The NUM step
folds a flow's floor and cap into one compare with a threshold found at
generation; the QP step skips the terms of empty queues, keeping every
bit.  A process compiles a shape's step once and keeps the last few,
which every oracle of that shape reuses, at any V.  Only the DPP
kernel calls ``steps``, so nothing else generates one.  Either way a step
is a pure function of the bits of q, which lets the kernel stop at the
queue's fixed point.

The QP oracle's per-V constants come from one solve with 2VP.
"""

from __future__ import annotations

import functools
import math
import struct
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
    @np.errstate(all="ignore")  # an alpha of 0 or inf is returned, not warned about
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
        # a P too large for floats is refused below, not warned of
        with np.errstate(over="ignore"):
            if np.abs(P - P.T).max() > 1e-12:
                raise ValueError("P must be symmetric")
            eig = self._eigvals_2P
            if not np.isfinite(eig).all():
                raise ValueError("P is too large: 2P or its eigenvalues overflow")
            if eig.min() <= 0:
                raise ValueError("2P must be positive definite")
            if eig.max() > 1e12 * eig.min():
                raise ValueError("P is ill-conditioned: cond(2P) is above 1e12")

    @functools.cached_property
    def _eigvals_2P(self) -> np.ndarray:
        """The eigenvalues of 2P, taken once, by the checks, for them and
        for alpha; NaN or inf where 2P or they overflow."""
        return np.linalg.eigvalsh(2.0 * self.P)

    @property
    def alpha_computed(self) -> float:
        """Strong-convexity modulus: smallest eigenvalue of 2P."""
        return float(self._eigvals_2P.min())

    def objective(self, x: np.ndarray):  # of an n-vector or of each row of a block
        return np.vecdot(x @ self.P, x) + x @ self.c


# Ones in A above which the generated NUM step stops paying.  Per step on
# 2-core x86-64, Python 3.11.7, numpy 2.4.6, on 0-1 A of several shapes
# (seeded random A with every row and column used, c = 1..2, b = 5..12,
# xmax = 20, the default V), medians of 9 alternating runs of 10 x 1024
# steps from q = 3, repeated 3-7 times on a busy machine: the generated
# step's time over numpy's row update's, its median and range over the
# repeats, and the repeats it won.
#
#   shape     ones  median  range      won  A
#   8 x 13     104  0.65    0.61-1.01  4/5  all ones
#   10 x 16    104  0.66    0.55-0.80  4/4  60% ones
#   8 x 16     128  0.67    0.65-0.82  7/7  all ones
#   12 x 12    144  0.86    0.73-0.90  5/5  all ones
#   8 x 18     144  0.80    0.73-0.83  3/3  all ones
#   16 x 16    154  1.00    0.89-1.25  3/7  60% ones
#   8 x 20     160  0.93    0.86-1.01  3/4  all ones
#   14 x 14    176  1.06    0.83-1.13  1/4  90% ones
#   20 x 20    205  1.36    1.17-1.44  0/4  50% ones
#   20 x 20    400  2.32    1.47-2.88  0/5  all ones
#
# The bound is the largest count measured at which the generated step's
# median wins on every shape of at most that many ones; at 154 ones it is
# 1.002.  Generating took 1.5, 1.9 and 4.1 ms at 104, 144 and 400 ones.
# Moving the bound moves the files between it and the old one from numpy's
# sums to the index-order ones, or back, and so changes their bits.
_MAX_GENERATED_ONES = 144

# Entries of the QP's m x m M above which its generated step stops paying,
# on the same machine, medians of 9 alternating runs of 10 x 1024 steps,
# generated against numpy: 1.70 against 3.46 us at m = 6, 2.60 against
# 3.10 at m = 8, 3.67 against 3.54 at m = 9 and 4.32 against 3.56 at
# m = 10; generating took 0.4 ms at m = 2 and 0.8-1.5 ms at m = 6..10.
# Measured again with the struct.pack hand-off, from q = 1e4, over three
# rounds on a busy machine: 2.86-2.96 against 3.73-3.94 us at m = 8,
# 3.28-3.72 against 2.66-4.27 at m = 9 and 3.74-4.63 against 3.21-4.29 at
# m = 10.  The step before it, on the same instances, crosses over near
# m = 9 too; generating took 0.6-1.5 ms at m = 8..10.  Measured again once
# the step skipped empty queues, medians of 5 alternating runs of 9 x 10 x
# 1024 steps, against the step before it and numpy: 1.40 against 1.55 and
# 1.89 us at m = 8 from q = 1e4 (no queue empty), 1.03 against 1.59 and
# 1.87 at m = 8 with half the queues empty, 2.05 against 1.90 and 1.94 at
# m = 9 from q = 1e4, and 1.19 against 1.87 and 1.90 at m = 9 with 5 of 9
# empty.  Full queues still cross over at m = 9, so the bound stays.
_MAX_GENERATED_ENTRIES = 64

# Compiled steps kept, by shape.  random_instances runs 14 shapes a round, its
# 7 QP shapes in every round: six rounds of seed 8901 hit 1, 10, 28 and 35 of
# 84 lookups at bounds 4, 8, 16 and 32, and generated for 35-48, 31-40, 23 and
# 19-21 ms (in-process, 2-core x86-64, Python 3.11.7).  A step is a few KiB.
_CACHED_STEPS = 32


@functools.lru_cache(maxsize=_CACHED_STEPS)
def _generate_steps(m: int, count: int, body: tuple[str, ...]):
    """The function ``steps(v0, .., v{count-1}, q0, .., q{m-1}, k)``: k
    queue steps on Python floats, each the ``body``, straight-line but for
    the QP step's ``if q<j>:`` guards, which reads the constants v0.. and
    reads and rebinds q0..q{m-1}; it returns the k queues row after row in
    one flat list.

    A body holds only names, integer indices and 0.0, never a number from
    a problem file, so each constant keeps its bits.  Its sums run in index
    order, where numpy's BLAS sums some shapes in another order or fuses a
    product into the sum, so the two agree to rounding and generated queues
    do not depend on the BLAS.  ``0.0 if y < 0.0 else y`` propagates NaN as
    np.maximum does.  Each shape compiles once per process, among the last
    ``_CACHED_STEPS``, and its oracles share the stateless function.
    """
    qs = ", ".join(f"q{k}" for k in range(m))
    lines = [f"def steps({''.join(f'v{j}, ' for j in range(count))}{qs}, k):", "    rows = []",
             "    for _ in range(k):", *(f"        {line}" for line in body),
             f"        rows += {qs},", "    return rows"]
    namespace = {}
    exec(compile("\n".join(lines), "<driftopt queue step>", "exec"), namespace)
    return namespace["steps"]


class _ClosedForm:
    """The ``steps`` of both closed forms: the first call generates the step
    of the kind's ``_step_body(value)``, which names each constant c it
    uses ``value(c)``, or where that is None each call steps with numpy's
    ``_row_update(q, out)``, which writes q's successor into out and
    returns it.  The generated rows reach the block through one
    ``struct.pack``: 9-15 us for 256 steps at m = 3, against 16-27 us for
    ``np.fromiter``."""

    def steps(self, Q: np.ndarray) -> None:
        if self._straight_line is None:
            q = Q[0]
            for out in Q[1:]:
                q = self._row_update(q, out)
        else:
            rows = self._straight_line(*Q[0].tolist(), len(Q) - 1)
            packed = struct.pack(f"{len(rows)}d", *rows)
            Q[1:] = np.frombuffer(packed).reshape(-1, Q.shape[1])

    @functools.cached_property
    def _straight_line(self):
        constants = []
        body = self._step_body(lambda c: constants.append(c) or f"v{len(constants) - 1}")
        return None if body is None else functools.partial(
            _generate_steps(self.inst.m, len(constants), tuple(body)), *constants)


class ClosedFormNumOracle(_ClosedForm):
    """Inner oracle backed by the log-utility closed form.

    x_i = min(c_i V / (q . a_i), xmax_i), where a_i is the i-th column of A
    (x_i >= 0 because q, A and c are).  A zero q . a_i means constraint
    pressure never touches flow i, and the clip gives the cap, its
    continuous limit.  q . a_i is raised to floor_i, just below
    c_i V / xmax_i, so nothing divides by zero and the clip still gives the
    same bits.  The generated step folds the floor and the clip into one
    compare of q . a_i with the flow's cap threshold (``_cap_threshold``)
    where the flow has one, as it does wherever c_i V / xmax_i is a normal
    float.
    """

    def __init__(self, inst: NumInstance, V: float):
        self.inst = inst
        self.cV = inst.c * _check_V(V)
        self.floor = self.cV / inst.xmax * (1 - 4 * np.finfo(float).eps)

    def argmin(self, q: np.ndarray) -> np.ndarray:
        return np.minimum(self.cV / np.maximum(q.dot(self.inst.A), self.floor), self.inst.xmax)

    def _row_update(self, q, out):
        return np.maximum(q + self.inst.constraints(self.argmin(q)), 0.0, out=out)

    def _step_body(self, value) -> list[str] | None:
        # the numpy row update's float operations, with the sums over the 0-1
        # A written out; ``f if s < f else s`` propagates NaN as np.maximum and
        # np.minimum do.  None above the size bound or at a floor of 0.0, which
        # Python cannot divide by where numpy gives inf or nan
        A = self.inst.A
        if A.sum() > _MAX_GENERATED_ONES or not self.floor.min() > 0:
            return None
        cV, floor, xmax, b = (v.tolist() for v in
                              (self.cV, self.floor, self.inst.xmax, self.inst.b))
        m, n = A.shape
        body = []
        for i in range(n):
            body.append(f"s = {' + '.join(f'q{k}' for k in range(m) if A[k, i])}")
            cap = value(xmax[i])
            if (s_star := _cap_threshold(cV[i], floor[i], xmax[i])) is not None:
                body.append(f"x{i} = {cap} if s < {value(s_star)} else {value(cV[i])} / s")
            else:
                body += [f"y = {value(cV[i])} / ({(f := value(floor[i]))} if s < {f} else s)",
                         f"x{i} = {cap} if y > {cap} else y"]
        for k in range(m):
            load = " + ".join(f"x{i}" for i in range(n) if A[k, i]) or "0.0"
            body += [f"y = q{k} + (({load}) - {value(b[k])})", f"q{k} = 0.0 if y < 0.0 else y"]
        return body


def _cap_threshold(cV: float, floor: float, xmax: float) -> float | None:
    """The cap threshold s*: the least float s with cV / s <= xmax, where
    cV / floor > xmax; None where that fails or no finite s exists.

    The quotient is non-increasing in s, so xmax for s < s* and cV / s from
    s* up is min(cV / max(s, floor), xmax) in every bit, for every float s:
    0.0 and -0.0 give xmax, inf gives 0.0 and NaN gives NaN.  s* lies a few
    ulps from cV / xmax, and never at or below floor, so no step divides
    by zero.
    """
    if not cV / floor > xmax:
        return None
    s = cV / xmax
    while cV / s > xmax:
        s = math.nextafter(s, math.inf)
    while cV / (below := math.nextafter(s, 0.0)) <= xmax:
        s = below
    return s if s < math.inf else None


class ClosedFormQpOracle(_ClosedForm):
    """Inner oracle backed by the linear-system closed form (X = R^n).

    The minimizer solves 2VP x = -(V c + A'q), so it is affine in the
    queue: x(q) = x0 + K q with x0 = (2VP)^-1 (-V c) and K = (2VP)^-1 (-A');
    x0 + q K' maps one queue and a block of queue rows alike.  So is
    g(x(q)) = A x(q) - b, and the queue update is the affine map
    q' = max(M q + c0, 0) with M = I + A K and c0 = A x0 - b.  All of them
    come from one solve with 2VP; only a V at which 2VP overflows is refused.
    Its generated step writes M q + c0 out in index order, skipping the
    columns of empty queues.
    """

    def __init__(self, inst: QpInstance, V: float):
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            H, A = 2.0 * _check_V(V) * inst.P, inst.A
        if not np.isfinite(H).all():
            raise ValueError(f"V={V:g} is too large for this program: 2VP overflows")
        X = np.linalg.solve(H, np.column_stack([-(V * inst.c), -A.T]))
        self.inst = inst
        self.x0, K = X[:, 0].copy(), X[:, 1:]
        self.Kt, self.M = K.T.copy(), np.eye(len(A)) + A.dot(K)
        self.c0 = A.dot(self.x0) - inst.b

    def argmin(self, q: np.ndarray) -> np.ndarray:
        return self.x0 + q.dot(self.Kt)

    def _row_update(self, q, out):
        return np.maximum(self.M.dot(q) + self.c0, 0.0, out=out)

    def _step_body(self, value) -> list[str] | None:
        # every y_k before any queue moves.  Column 0 starts each row, each
        # later column j adds its terms under one ``if q{j}:`` and c0_k comes
        # last: a skipped term M_kj q_j is a zero, and x + (+-0.0) is x for
        # every x but a zero, so a sum can lose only the sign of a zero,
        # which + c0_k erases unless c0_k is -0.0.  Such a row, and an
        # entry of M that is not finite (inf * 0 is NaN, as in numpy's dot),
        # adds its terms unguarded
        if self.M.size > _MAX_GENERATED_ENTRIES:
            return None
        M, c0 = self.M.tolist(), self.c0.tolist()
        minus_zero = [c == 0.0 and math.copysign(1.0, c) < 0.0 for c in c0]
        body = [f"y{k} = {value(row[0])} * q0" for k, row in enumerate(M)]
        for j in range(1, len(c0)):
            terms = [(minus_zero[k] or not math.isfinite(row[j]),
                      f"y{k} += {value(row[j])} * q{j}") for k, row in enumerate(M)]
            body += [term for always, term in terms if always]
            if guarded := [f"    {term}" for always, term in terms if not always]:
                body += [f"if q{j}:", *guarded]
        return (body + [f"y{k} += {value(c)}" for k, c in enumerate(c0)]
                + [f"q{k} = 0.0 if y{k} < 0.0 else y{k}" for k in range(len(c0))])
