"""Built-in benchmark instances and a JSON problem loader.

Each bundle couples a concrete instance, its ProgramSpec view, the matching
closed-form inner oracle, named constants (with a provenance flag telling
whether the value is taken verbatim from the original experiment write-up
or recomputed from the data), and the ground-truth KKT solution.  The
builtins are problem documents like any problem file; both go through one
constructor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ProgramSpec
from .dual_analysis import general_dual_hessian, num_dual_hessian
from .oracles import ClosedFormNumOracle, ClosedFormQpOracle, NumInstance, QpInstance
from .reference import InfeasibleError, KktSolution, kkt_solve_num, kkt_solve_qp

# The built-in instances as problem documents (the problem-file schema).
# num_6_1: 3-link, 3-flow proportional-fairness rate allocation.
# qp_6_2: 2-variable strongly convex QP with two linear constraints.
# num_5_2_rank_deficient: 4-link rate allocation whose constraint matrix
# has rank 3 < 4, so the dual optimum is a face, not a point.
BUILTINS = {
    "num_6_1": {"kind": "num", "c": [1.0, 2.0, 3.0],
                "A": [[1, 1, 1], [1, 1, 0], [0, 1, 1]],
                "b": [10.0, 8.0, 8.0], "xmax": [11.0, 11.0, 11.0],
                "alpha": 2.0 / 121.0},
    "qp_6_2": {"kind": "qp", "P": [[1.0, 2.0], [2.0, 5.0]], "c": [1.0, 1.0],
               "A": [[1.0, 1.0], [0.0, 1.0]], "b": [-2.0, -1.0],
               "alpha": 0.34},
    "num_5_2_rank_deficient": {
        "kind": "num", "c": [1.0, 1.0, 1.0, 1.0],
        "A": [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]],
        "b": [3.0, 7.0, 2.0, 8.0], "xmax": [10.0, 10.0, 10.0, 10.0]},
}
# Constants the original experiment write-up reports for each builtin.
PAPER_CONSTANTS = {
    "num_6_1": {"gamma": 422.0, "V_standard": 363.0, "V_shifted": 422.0},
    "qp_6_2": {"gamma": 9.0, "V_standard": 4.0 / 0.34},
    "num_5_2_rank_deficient": {},
}
BUILTIN_TAGS = tuple(BUILTINS)


@dataclass(frozen=True)
class Constant:
    """Named constant with provenance: reported verbatim or recomputed."""

    name: str
    value: float
    source: str  # "paper" or "computed"

    def __post_init__(self):
        if self.source not in ("paper", "computed"):
            raise ValueError("source must be 'paper' or 'computed'")


@dataclass
class ProblemBundle:
    """A ready-to-run problem: spec, instance, oracle, constants, ground truth."""

    tag: str
    kind: str  # "num" or "qp"
    program: ProgramSpec
    instance: object
    oracle: object
    constants: tuple[Constant, ...] = ()
    reference: KktSolution | None = None
    reference_error: str | None = None

    def constant(self, name: str) -> float:
        for c in self.constants:
            if c.name == name:
                return c.value
        raise KeyError(name)


def _gamma(A: np.ndarray, alpha: float) -> float:
    """Dual smoothness modulus ||A||_F^2 / alpha."""
    return float(np.sum(A ** 2)) / alpha


def _array(doc: dict, key: str, source: str = "problem") -> np.ndarray:
    """The field ``key`` of a problem (or other ``source``) document, a
    number or a (nested) array of numbers, as floats."""
    if key not in doc:
        raise ValueError(f"{source} file missing required field {key!r}")
    try:
        arr = np.asarray(doc[key])
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":  # null, bool, string, object
        raise ValueError(f"{source} field {key!r} must be an array of numbers")
    return arr.astype(float)


def _number(doc: dict, key: str, source: str = "problem") -> float:
    """The field ``key`` of a problem (or other ``source``) document, a
    finite number, as a float."""
    val = doc[key]
    try:
        if not isinstance(val, bool) and math.isfinite(val):
            return float(val)
    except (TypeError, OverflowError):  # not a number, or an int past float
        pass
    raise ValueError(f"{source} field {key!r} must be a finite number")


def _check_gamma_vs_Lc(dual_hessian, reference: KktSolution | None,
                       gamma: float) -> None:
    """Validate the stored smoothness modulus against the local curvature
    Lc, the smallest eigenvalue of -dual_hessian(lambda*)."""
    if reference is None:
        return
    try:
        hess = dual_hessian(reference.lambda_star)
    except ValueError:
        return  # multiplier outside the interior regime; nothing to check
    Lc = -float(np.linalg.eigvalsh(hess).max())
    # Lc <= 0: the Hessian is not negative definite and Lc is undefined
    if Lc > 0 and gamma < Lc - 1e-12:
        raise ValueError(
            f"stored smoothness modulus gamma={gamma:g} is below the local "
            f"curvature Lc={Lc:g}")


def _bundle(tag: str, doc, paper: dict) -> ProblemBundle:
    """Build a bundle from a problem document and the write-up's constants
    for it (none for a problem file).

    The document follows the problem-file schema (see ``load_problem``).
    Given an alpha or beta, the bundle reports it as "paper" and, for
    alpha, the computed default beside it; a paper gamma likewise comes
    with the computed ||A||_F^2 / alpha and must dominate the local
    curvature of the dual at the optimum.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("problem file must be a JSON object with a 'kind' field")
    kind = doc["kind"]
    data = {key: _array(doc, key) for key in ("A", "b", "c")}
    # Everything kind-specific: the instance and its computed alpha, the
    # box, the closed-form oracle, the ground-truth solver and the dual
    # Hessian at a multiplier.
    if kind == "num":
        inst = NumInstance(**data, xmax=_array(doc, "xmax"))
        alpha_computed = float(min(inst.c / inst.xmax ** 2))
        lower, upper = np.zeros(inst.n), inst.xmax
        oracle, kkt_solve = ClosedFormNumOracle(inst), kkt_solve_num
        dual_hessian = lambda lam: num_dual_hessian(inst, lam)
    elif kind == "qp":
        inst = QpInstance(**data, P=_array(doc, "P"))
        alpha_computed = inst.alpha
        lower, upper = np.full(inst.n, -np.inf), np.full(inst.n, np.inf)
        oracle, kkt_solve = ClosedFormQpOracle(inst), kkt_solve_qp
        dual_hessian = lambda lam: general_dual_hessian(inst.A, 2.0 * inst.P)
    else:
        raise ValueError(f"unknown problem kind {kind!r}")

    alpha = _number(doc, "alpha") if "alpha" in doc else alpha_computed
    beta = _number(doc, "beta") if "beta" in doc else float(
        np.linalg.norm(inst.A, axis=1).max())
    A, b = inst.A, inst.b
    program = ProgramSpec(n=inst.n, m=inst.m, objective=inst.objective,
                          constraints=lambda x: A.dot(x.T).T - b,
                          lower=lower, upper=upper, alpha=alpha, beta=beta)
    try:
        reference, err = kkt_solve(inst), None
    except (InfeasibleError, ValueError) as exc:
        # ValueError: m above the enumeration limit, or a LinAlgError
        reference, err = None, str(exc)

    constants = [Constant("alpha", alpha, "paper" if "alpha" in doc else "computed")]
    if "alpha" in doc:
        constants.append(Constant("alpha_computed", alpha_computed, "computed"))
    constants.append(Constant("beta", beta, "paper" if "beta" in doc else "computed"))
    if "gamma" in paper:
        _check_gamma_vs_Lc(dual_hessian, reference, paper["gamma"])
        constants += [Constant("gamma", paper["gamma"], "paper"),
                      Constant("gamma_computed", _gamma(inst.A, alpha), "computed")]
    else:
        constants.append(Constant("gamma", _gamma(inst.A, alpha), "computed"))
    constants += [Constant(name, value, "paper")
                  for name, value in paper.items() if name != "gamma"]
    return ProblemBundle(tag=tag, kind=kind, program=program, instance=inst,
                         oracle=oracle, constants=tuple(constants),
                         reference=reference, reference_error=err)


def builtin(tag: str) -> ProblemBundle:
    """One of the three built-in instances (see ``BUILTINS``)."""
    if tag not in BUILTINS:
        raise ValueError(f"unknown builtin tag {tag!r}; choose from {BUILTIN_TAGS}")
    return _bundle(tag, BUILTINS[tag], PAPER_CONSTANTS[tag])


def load_problem(path) -> ProblemBundle:
    """Build a bundle from a JSON problem file.

    Schema: {"kind": "num"|"qp", "A", "b", "c", "P" (qp), "xmax" (num),
    "alpha" (optional), "beta" (optional)}.  Missing alpha defaults to the
    smallest eigenvalue of 2P for QPs and min c_i / xmax_i^2 for rate
    allocation; missing beta defaults to the largest row norm of A.  The
    dual smoothness modulus gamma is computed as ||A||_F^2 / alpha.
    """
    path = Path(path)
    with open(path) as fh:
        doc = json.load(fh)
    return _bundle(path.stem, doc, {})
