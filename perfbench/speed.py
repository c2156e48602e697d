"""Machine-speed probe, for times that compare across runs.

On a shared machine the same single-threaded work can run up to ~1.8x
slower while other tenants load the same cores.  Such stretches come and go
within a second, and they can make a whole run slow.  The benchmark
therefore times a fixed kernel between the commands it measures, about one
kernel per ``SAMPLE_EVERY_S`` of command time, and scales each command's
time by ``REFERENCE_S / mean kernel time`` over the kernels run just before
and just after it: a reported second is a second at the speed where the
kernel takes ``REFERENCE_S``.  The mean, not the median, because the
slow-down is close to two-valued, and the mean tracks the share of time
spent slow.

The kernel mimics the mix of work in driftopt's commands: a DPP-style loop
of small numpy operations on a validated frozen dataclass, one record per
step, then a CSV write and read of the records.  It is written here, not
imported, so that no change to driftopt can change it.  Raw times are kept
in the result file next to the scaled ones.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from statistics import fmean
from time import perf_counter

import numpy as np

REFERENCE_S = 0.004
SAMPLE_EVERY_S = 0.05
KERNEL_STEPS = 150

_A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
_C = np.array([1.0, 2.0, 3.0])
_B = np.array([10.0, 8.0, 8.0])


@dataclass(frozen=True)
class _Queue:
    q: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.q, dtype=float))
        if np.any(arr < 0):
            raise ValueError("negative queue")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "q", arr)


def kernel_s() -> float:
    """Seconds for one run of the fixed kernel."""
    start = perf_counter()
    q = np.zeros(3)
    records = []
    for t in range(KERNEL_STEPS):
        state = _Queue(q)
        x = np.minimum(_C * 500.0 / np.maximum(state.q @ _A, 1e-9), 11.0)
        q = np.maximum(q + _A @ x - _B, 0.0)
        records.append({"t": t, "f": float(-(_C @ np.log(x))),
                        "qnorm": float(np.linalg.norm(q))})
    buf = io.StringIO()
    writer = csv.writer(buf)
    for r in records:
        writer.writerow([r["t"], f"{r['f']:.17g}", f"{r['qnorm']:.17g}"])
    sum(float(row[1]) for row in csv.reader(io.StringIO(buf.getvalue())))
    return perf_counter() - start


def factor(kernel_times: list[float]) -> float:
    """Scale from measured to reference seconds around these kernels."""
    return REFERENCE_S / fmean(kernel_times)
