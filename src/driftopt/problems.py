"""Built-in benchmark instances and a JSON problem loader.

Each bundle couples a program (an instance of one problem kind, which is
a ProgramSpec with its alpha and beta), the factory V -> closed-form inner
oracle, named constants (with a provenance flag telling whether the value
is taken verbatim from the original experiment write-up or recomputed
from the data), and the ground-truth KKT solution.
The builtins are problem documents like any problem file; both go through
one constructor, which keeps the bundles it built last, keyed on what each
is made from, so that one process builds each problem once.  A bundle is
immutable and so may be shared: its program, constants and ground truth
are frozen, with read-only arrays, and its oracle factory builds a fresh
oracle on every call.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ProgramSpec
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


@dataclass(frozen=True)
class ProblemBundle:
    """A ready-to-run problem: program, oracle, constants, ground truth."""

    tag: str
    kind: str  # "num" or "qp"
    program: ProgramSpec  # a NumInstance or a QpInstance
    oracle: object  # V -> the program's closed-form oracle at penalty V
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


# Bundles that ``_bundle`` keeps, the least recently used going first: the
# 3 builtins and the current problem file.  A file serves the kkt, solve
# and audit of one pipeline back to back, and the benchmark's ``run_round``
# runs its pipelines one after another.  A bundle of m, n <= 20 is a few KiB.
_CACHED_BUNDLES = 4


@functools.lru_cache(maxsize=_CACHED_BUNDLES)
def _bundle(tag: str, doc_json: str, paper_json: str) -> ProblemBundle:
    """Build a bundle from a problem document and the write-up's constants
    for it (none for a problem file), each given as its JSON text.

    The document follows the problem-file schema (see ``load_problem``).
    Given an alpha or beta, the bundle reports it as "paper" and, for
    alpha, the computed default beside it; a paper gamma likewise comes
    with the computed ||A||_F^2 / alpha.

    The tag and the two texts are the key of the cache of bundles, so an
    edited file or constant is built afresh; a build that raises is not kept.
    """
    try:
        doc, paper = json.loads(doc_json), json.loads(paper_json)
    except RecursionError:  # nested past the parser's limit
        raise ValueError("problem file is nested too deeply") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("problem file must be a JSON object with a 'kind' field")
    kind = doc["kind"]
    data = {key: _array(doc, key) for key in ("A", "b", "c")}
    moduli = {key: _number(doc, key) for key in ("alpha", "beta") if key in doc}
    # Everything kind-specific: the instance, the closed-form oracle and the
    # ground-truth solver.
    if kind == "num":
        inst = NumInstance(**data, xmax=_array(doc, "xmax"), **moduli)
        oracle, kkt_solve = functools.partial(ClosedFormNumOracle, inst), kkt_solve_num
    elif kind == "qp":
        inst = QpInstance(**data, P=_array(doc, "P"), **moduli)
        oracle, kkt_solve = functools.partial(ClosedFormQpOracle, inst), kkt_solve_qp
    else:
        raise ValueError(f"unknown problem kind {kind!r}")

    try:
        reference, err = kkt_solve(inst), None
    except (InfeasibleError, ValueError) as exc:
        # ValueError: m above the enumeration limit, or a LinAlgError
        reference, err = None, str(exc)

    constants = [Constant("alpha", inst.alpha, "paper" if "alpha" in doc else "computed")]
    if "alpha" in doc:
        constants.append(Constant("alpha_computed", inst.alpha_computed, "computed"))
    constants.append(Constant("beta", inst.beta, "paper" if "beta" in doc else "computed"))
    if "gamma" in paper:
        constants += [Constant("gamma", paper["gamma"], "paper"),
                      Constant("gamma_computed", _gamma(inst.A, inst.alpha), "computed")]
    else:
        constants.append(Constant("gamma", _gamma(inst.A, inst.alpha), "computed"))
    constants += [Constant(name, value, "paper")
                  for name, value in paper.items() if name != "gamma"]
    return ProblemBundle(tag=tag, kind=kind, program=inst, oracle=oracle,
                         constants=tuple(constants), reference=reference,
                         reference_error=err)


def builtin(tag: str) -> ProblemBundle:
    """One of the three built-in instances (see ``BUILTINS``)."""
    if tag not in BUILTINS:
        raise ValueError(f"unknown builtin tag {tag!r}; choose from {BUILTIN_TAGS}")
    return _bundle(tag, json.dumps(BUILTINS[tag]), json.dumps(PAPER_CONSTANTS[tag]))


def load_problem(path) -> ProblemBundle:
    """Build a bundle from a JSON problem file.

    Schema: {"kind": "num"|"qp", "A", "b", "c", "P" (qp), "xmax" (num),
    "alpha" (optional), "beta" (optional)}.  Missing alpha defaults to the
    smallest eigenvalue of 2P for QPs and min c_i / xmax_i^2 for rate
    allocation; missing beta defaults to the largest row norm of A.  The
    dual smoothness modulus gamma is computed as ||A||_F^2 / alpha.
    The file is read on every call; an unchanged file gives back the bundle
    built before while ``_bundle``'s cache keeps it.
    """
    path = Path(path)
    with open(path) as fh:
        text = fh.read()
    return _bundle(path.stem, text, "{}")
