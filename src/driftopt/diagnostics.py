"""Trace diagnostics: the worst constraint violation of each sample
(``max_violation``), decay-rate fitting, and audits of the convergence
guarantees against a ground-truth solution.

Rate fits are least-squares lines in transformed coordinates; audits
evaluate each guarantee at every sampled iteration and report worst
margins, from one table of the six bounds in ``audit_bounds``: each entry
has its name, applicability, margins and tolerance.  Everything is pure
over immutable traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .core import IterateTrace, ProgramSpec, _as_vector, dual_value_and_gradient, theta_bound
from .reference import KktSolution


@dataclass
class RateFit:
    """Fitted decay model for an error series.

    power: e(t) ~ C * (t/t_lo)^-p; geometric: e(t) ~ (C/t) * r^(t - t_lo).
    C is the model's e(t), or t * e(t), at the window start t_lo.
    ``quality`` is an R^2-style score of the predicted log-error against
    the observed log-error, clamped to [0, 1], so the two models are
    directly comparable on the same series.
    """

    model: str
    p: float | None
    r: float | None
    C: float
    quality: float
    t_lo: int
    t_hi: int

    def to_dict(self) -> dict:
        return asdict(self)


def max_violation(g_xbar: np.ndarray) -> np.ndarray:
    """Worst constraint violation max(0, max_k g_k(xbar)), one entry per
    row of the S x m ``g_xbar``."""
    # column by column, k in index order: bitwise the reduction along each
    # row (a NaN stays NaN), at 33 us instead of 657 on 10,001 x 3
    violation = np.maximum(g_xbar[:, 0], 0.0)
    for g in g_xbar.T[1:]:
        np.maximum(violation, np.maximum(g, 0.0), out=violation)
    return violation


def _quality(log_e: np.ndarray, predicted: np.ndarray) -> float:
    ss_res = float(np.sum((log_e - predicted) ** 2))
    ss_tot = float(np.sum((log_e - log_e.mean()) ** 2))
    if ss_tot == 0:
        return 1.0 if ss_res <= 1e-20 else 0.0
    return float(min(max(1.0 - ss_res / ss_tot, 0.0), 1.0))


def _prepare(ts, errors, window_fraction, window):
    ts = np.asarray(ts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if window is not None:
        lo, hi = window
        in_window = (ts >= lo) & (ts <= hi)
    elif not (0 < window_fraction <= 1):
        raise ValueError("window_fraction must be in (0, 1]")
    else:  # the last window_fraction of the range of log t
        log_t = np.log10(ts)
        in_window = log_t >= log_t.max() - window_fraction * (log_t.max() - log_t.min())
    mask = in_window & (errors > 0)
    if mask.sum() < 10:
        raise ValueError("need at least 10 positive samples in the fit window")
    return ts[mask], errors[mask]


@np.errstate(all="ignore")  # an overflow shows as a non-finite fit, which is rejected
def fit_power_decay(ts, errors, window_fraction: float = 0.5,
                    window: tuple[float, float] | None = None) -> RateFit:
    """Fit e(t) ~ C * (t/t_lo)^-p by a least-squares line on (log(t/t_lo),
    log e), with t_lo the window's first sample: C is the model's e(t_lo).

    Zero/negative entries are dropped; the fit uses the tail window (last
    ``window_fraction`` of the logarithmic time range, or an explicit
    [t_lo, t_hi] window).
    """
    t, e = _prepare(ts, errors, window_fraction, window)
    log_t, log_e = np.log(t / t.min()), np.log(e)
    (slope, intercept), *_ = np.polyfit(log_t, log_e, 1, full=True)  # full: no RankWarning
    predicted = slope * log_t + intercept
    return RateFit(model="power", p=float(-slope), r=None,
                   C=float(np.exp(intercept)), quality=_quality(log_e, predicted),
                   t_lo=int(t.min()), t_hi=int(t.max()))


@np.errstate(all="ignore")  # an overflow shows as a non-finite fit, which is rejected
def fit_geometric(ts, errors, window_fraction: float = 0.5,
                  window: tuple[float, float] | None = None) -> RateFit:
    """Fit e(t) ~ (C/t) * r^(t - t_lo) by a least-squares line on
    (t - t_lo, log(t*e)), where t_lo is the first sample of the fit window.

    The regression target includes the 1/t factor so that r captures only
    the geometric part of the decay.  C is t*e(t) of the model at the
    window's start, so it stays finite for a window far from t = 0.
    """
    t, e = _prepare(ts, errors, window_fraction, window)
    dt, log_te = t - t.min(), np.log(t * e)
    (slope, intercept), *_ = np.polyfit(dt, log_te, 1, full=True)
    r = float(np.exp(slope))
    if not (0 < r < 1):
        raise ValueError(f"geometric fit produced ratio {r:g} outside (0, 1)")
    predicted_log_e = intercept + slope * dt - np.log(t)
    return RateFit(model="geometric", p=None, r=r,
                   C=float(np.exp(intercept)),
                   quality=_quality(np.log(e), predicted_log_e),
                   t_lo=int(t.min()), t_hi=int(t.max()))


@np.errstate(all="ignore")  # a non-finite margin is returned, not warned about
def audit_bounds(trace: IterateTrace, reference: KktSolution,
                 program: ProgramSpec, q0: np.ndarray, gamma: float,
                 oracle) -> list[dict]:
    """Check every applicable convergence guarantee at every sampled t of
    a run from the initial queue ``q0`` = Q(0), given the dual smoothness
    modulus ``gamma`` and the run's oracle factory, V -> inner oracle.

    Audited bounds (each entry reports applicability, pass/fail, and the
    worst margin lhs - rhs over the samples; positive margin = violation):

    - objective: f(xbar(t)) <= f* + ||Q(0)||^2 / (2 V t); with Q(0) = 0
      this is the exact non-violation property, checked at 1e-9.
    - constraint: g_k(xbar(t)) <= (sqrt(||Q(0)||^2 + V^2 ||lam*||^2)
      + V ||lam*||) / t for every k.
    - queue: ||Q(t)|| <= sqrt(||Q(0)||^2 + V^2 ||lam*||^2) + V ||lam*||.
    - dual gap: q(lam*) - q(lam(t)) <= theta / t (needs V >= gamma).
    - multiplier distance nonincreasing (needs V >= gamma), and dual value
      nondecreasing (needs V >= gamma / 2), both per consecutive sample
      with 1e-9 tolerance.

    A B or theta that overflows the floats, or an objective rhs that does at
    every sample (at a V or Q(0) near a float limit), bounds every finite
    trace but cannot be checked against one: its bounds report not applicable.
    """
    if reference is None:
        raise ValueError("audit needs a reference solution")
    if len(trace) == 0:
        raise ValueError("trace is empty")
    V = trace.V
    ts = trace.t.astype(float)
    q0 = _as_vector(q0, program.m, "q0")
    q0_norm2 = float(np.sum(q0 ** 2))
    lam_star = np.asarray(reference.lambda_star, dtype=float)
    lam_star_norm = float(np.linalg.norm(lam_star))
    # hypot keeps B finite where V^2 ||lam*||^2 alone would overflow.
    bound_B = math.hypot(math.sqrt(q0_norm2), V * lam_star_norm) + V * lam_star_norm
    rhs = reference.f_star + q0_norm2 / (2.0 * V * ts)
    rhs_max = np.abs(rhs[np.isfinite(rhs)]).max(initial=0.0)  # over the finite samples
    dual_ok = trace.lambda_dist is not None and trace.dual_gap is not None
    gamma_ok = bool(V >= gamma and dual_ok)
    theta = math.nan  # dual_gap_bound is not applicable where theta is not computed
    if gamma_ok:
        lam0 = q0 / V
        q_at_lam0, _ = dual_value_and_gradient(program, oracle, lam0)
        q_at_star, _ = dual_value_and_gradient(program, oracle, lam_star)
        theta = theta_bound(V, gamma, lam0, lam_star, q_at_lam0, q_at_star)

    # (name, applicable, margins, tolerance): margins, lhs - rhs per sample,
    # are evaluated only for an applicable bound.
    bounds = (
        # exact non-violation when the queue starts at zero
        ("objective_bound", bool(np.isfinite(rhs).any()), lambda: trace.f_xbar - rhs,
         1e-9 if q0_norm2 == 0 else 1e-9 * (1.0 + rhs_max)),
        ("constraint_bound", math.isfinite(bound_B),  # every component
         lambda: trace.g_xbar - (bound_B / ts)[:, None], 1e-9 * (1.0 + bound_B)),
        ("queue_bound", math.isfinite(bound_B), lambda: trace.qnorm - bound_B,
         1e-9 * (1.0 + bound_B)),
        ("dual_gap_bound", math.isfinite(theta), lambda: trace.dual_gap - theta / ts,
         1e-9 * (1.0 + theta)),
        # per consecutive sample; q(lam(t)) = q(lam*) - dual_gap, so a
        # nondecreasing dual value is a nonincreasing gap
        ("multiplier_distance_monotone", gamma_ok, lambda: np.diff(trace.lambda_dist), 1e-9),
        ("dual_value_monotone", bool(V >= gamma / 2.0 and dual_ok),
         lambda: np.diff(trace.dual_gap), 1e-9),
    )
    report = []
    for name, applicable, margins, tol in bounds:
        worst = None
        if applicable:
            values = margins()
            worst = float(values.max()) if len(values) else 0.0
        report.append({"bound": name, "applicable": applicable,
                       "pass": None if worst is None else bool(worst <= tol),
                       "worst_margin": worst})
    return report


def audit_passed(report: list[dict]) -> bool:
    """True when every applicable audited bound passed."""
    return all(entry["pass"] for entry in report if entry["applicable"])
