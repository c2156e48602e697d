"""Every name in ``driftopt.__all__``, and every field of its dataclasses,
is used by the package itself; every problem kind is a ``ProgramSpec``;
every oracle in ``driftopt.oracles`` has the full oracle protocol:
built from (inst, V), with ``argmin(q)`` and ``steps(Q)`` that leave it as
it was, and no other public method; and ``run`` takes the run's parameters by keyword.

The usage checks parse ``src/driftopt`` with ``ast`` and count a name as
used when some module other than ``__init__`` loads it (as a bare name or
an attribute) outside the statement that defines it.  Imports do not
count.  A dataclass field counts as read only when the package loads it
as an attribute, ``obj.<field>``: a local variable of the same name is
not a read.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import driftopt
import driftopt.oracles
from driftopt import NumInstance, ProgramSpec, QpInstance, builtin, choose_V, run

# Public names whose only callers are tests, each with the reason it stays.
TEST_ONLY: dict[str, str] = {
    name: "tests/test_problems.py checks each write-up gamma against the local "
          "curvature with it, and ROADMAP item 7(a) has kkt report it"
    for name in ("num_dual_hessian", "general_dual_hessian")
}

# Public dataclasses whose fields need no reader by name, with the reason.
UNREAD_FIELDS: dict[str, str] = {
    "RateFit": "to_dict writes every field through asdict",
}


def _defined_names(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _package_statements():
    for path in Path(driftopt.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            yield from ast.parse(path.read_text()).body


def used_names() -> set[str]:
    used = set()
    for stmt in _package_statements():
        own = _defined_names(stmt)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in own:
                used.add(name)
    return used


def read_attributes() -> set[str]:
    """Every ``obj.<name>`` that the package loads."""
    return {node.attr for stmt in _package_statements() for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_name_is_used_by_the_package():
    used = used_names()
    unused = sorted(n for n in driftopt.__all__ if n not in used and n not in TEST_ONLY)
    assert unused == [], f"public names only tests use: {unused}"


def test_test_only_list_is_current():
    # a listed name that gains a caller in the package, or leaves __all__,
    # leaves the list too
    used = used_names()
    for name in TEST_ONLY:
        assert name in driftopt.__all__ and name not in used, name


def test_every_dataclass_field_is_read_by_the_package():
    used = read_attributes()
    classes = {name: getattr(driftopt, name) for name in driftopt.__all__
               if dataclasses.is_dataclass(getattr(driftopt, name))}
    assert set(UNREAD_FIELDS) <= set(classes)
    unread = sorted(f"{name}.{f.name}" for name, cls in classes.items()
                    if name not in UNREAD_FIELDS
                    for f in dataclasses.fields(cls) if f.name not in used)
    assert unread == [], f"dataclass fields only tests read: {unread}"


PROBLEM_KINDS = [cls for name, cls in vars(driftopt.oracles).items()
                 if isinstance(cls, type) and name.endswith("Instance")]


def test_every_problem_kind_is_a_program():
    # the instance is the program the solver runs: alpha and beta are
    # keyword-only, and None (the default) means the computed modulus
    assert PROBLEM_KINDS
    for cls in PROBLEM_KINDS:
        assert issubclass(cls, ProgramSpec), cls.__name__
        params = inspect.signature(cls).parameters
        for name in ("alpha", "beta"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, cls.__name__
            assert params[name].default is None, cls.__name__
    P = np.array([[2.0, 1.0], [1.0, 3.0]])
    qp = QpInstance(P=P, c=[1.0, 0.0], A=[[3.0, 4.0], [1.0, 1.0]], b=[1.0, 1.0])
    assert qp.alpha == np.linalg.eigvalsh(2.0 * P).min()
    assert qp.beta == 5.0
    c, xmax = np.array([1.0, 8.0, 3.0]), np.array([4.0, 5.0, 6.0])
    num = NumInstance(c=c, A=[[1, 1, 0], [0, 1, 1]], b=[1.0, 2.0], xmax=xmax)
    assert num.alpha == np.min(c / xmax ** 2) == 1.0 / 16.0
    assert num.beta == np.sqrt(2.0)
    given = NumInstance(c=c, A=[[1, 1, 0], [0, 1, 1]], b=[1.0, 2.0], xmax=xmax,
                        alpha=0.5, beta=3.0)
    assert (given.alpha, given.beta, given.alpha_computed) == (0.5, 3.0, 1.0 / 16.0)


ORACLES = [cls for name, cls in vars(driftopt.oracles).items()
           if isinstance(cls, type) and name.endswith("Oracle")]


def test_every_oracle_steps_the_queue():
    # the DPP kernel calls steps on a block's rows, one step and then a
    # chunk at a time, and argmin on a block's queue rows, with no fallback
    # for an oracle that lacks either; no oracle keeps a second step method
    # beside them, and every oracle takes its one steps from one base
    # class.  steps only fills rows, each from the row before it and past
    # any fixed point: from seeded random queues and from the queue's fixed
    # point (reached by t = 12763 from Q(0) = 0 on both builtins), a
    # 300-row block fills the bytes of 300 one-row calls, and every call
    # returns None
    assert ORACLES
    for cls in ORACLES:
        assert callable(getattr(cls, "argmin", None)), cls.__name__
        assert callable(getattr(cls, "steps", None)), cls.__name__
        public = {name for base in cls.__mro__[:-1] for name in vars(base)
                  if not name.startswith("_")}
        assert sorted(public) == ["argmin", "steps"], cls.__name__
    assert len({cls.steps for cls in ORACLES}) == 1
    assert not any("steps" in vars(cls) for cls in ORACLES)
    bundles = [builtin("num_6_1"), builtin("qp_6_2")]
    oracles = [b.oracle(choose_V(b.program)) for b in bundles]
    assert {type(oracle) for oracle in oracles} == set(ORACLES)
    rng = np.random.default_rng(12)
    for b, oracle in zip(bundles, oracles):
        m = b.program.m
        fixed = np.zeros((12765, m))
        oracle.steps(fixed)
        for q0 in [fixed[-1], *rng.uniform(0, 50, (4, m)) * (rng.random((4, m)) < 0.7)]:
            block, rows = np.empty((301, m)), np.empty((301, m))
            block[0] = rows[0] = q0
            assert oracle.steps(block) is None
            for t in range(300):
                assert oracle.steps(rows[t:t + 2]) is None
            assert block.tobytes() == rows.tobytes()


def _parameters(function) -> list[str]:
    return list(inspect.signature(function).parameters)


def test_every_oracle_is_built_at_one_V():
    # V is a constructor argument, the one place it enters; no method takes it
    for cls in ORACLES:
        assert _parameters(cls.__init__) == ["self", "inst", "V"], cls.__name__
        assert _parameters(cls.argmin) == ["self", "q"], cls.__name__
        assert _parameters(cls.steps) == ["self", "Q"], cls.__name__


@pytest.mark.parametrize("tag", ["num_6_1", "qp_6_2"])
def test_oracle_calls_leave_the_oracle_as_built(tag):
    b = builtin(tag)
    oracle = b.oracle(choose_V(b.program))
    before = dict(vars(oracle))
    arrays = {name: value.copy() for name, value in before.items()
              if isinstance(value, np.ndarray)}
    Q = np.random.default_rng(4).uniform(0, 50, (8, b.program.m))
    oracle.argmin(Q)
    assert vars(oracle).keys() == before.keys()
    oracle.steps(Q.copy())  # the first call keeps the generated step, and only it
    (memo,) = vars(oracle).keys() - before.keys()
    generated = vars(oracle)[memo]
    oracle.steps(Q.copy())
    for q in Q:
        oracle.argmin(q)
    after = vars(oracle)
    assert after.keys() == before.keys() | {memo} and after[memo] is generated
    for name, value in before.items():
        assert after[name] is value, name
    for name, value in arrays.items():
        assert np.array_equal(after[name], value), name


def test_run_takes_its_parameters_by_keyword():
    # no parameter object stands between a caller and run: every
    # parameter after the program and the oracle factory is keyword-only
    params = list(inspect.signature(run).parameters.values())
    assert [p.name for p in params[:2]] == ["program", "oracle"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params[:2])
    assert [p.name for p in params[2:]] == ["V", "q0", "iters", "variant", "sample",
                                            "reference"]
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[2:])
    assert not hasattr(driftopt, "SolverConfig")


def test_no_public_class_is_built_to_read_one_attribute():
    # a class that its callers build only to read one attribute at once,
    # Cls(...).attr, is a check function in a wrapper: the check stays a
    # function (as core._as_queue is) and the wrapper does not come back
    classes = {stmt.name for stmt in _package_statements()
               if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_")}
    classes |= {name for name in driftopt.__all__ if isinstance(getattr(driftopt, name), type)}
    offenders = []
    for stmt in _package_statements():
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call):
                func = node.value.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in classes:
                    offenders.append(f"{name}(...).{node.attr}")
    assert offenders == []
