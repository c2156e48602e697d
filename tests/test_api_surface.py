"""Every name in ``driftopt.__all__`` is used by the package itself.

The check parses ``src/driftopt`` with ``ast`` and counts a name as used
when some module other than ``__init__`` loads it (as a bare name or an
attribute) outside the statement that defines it.  Imports do not count.
"""

import ast
from pathlib import Path

import driftopt

# Public names whose only callers are tests, each with the reason it stays.
TEST_ONLY = {
    "ProjectedGradientOracle": "the generic oracle the closed forms are "
                               "checked against (acceptance criterion 9)",
}


def _defined_names(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def used_names() -> set[str]:
    used = set()
    for path in Path(driftopt.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
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
