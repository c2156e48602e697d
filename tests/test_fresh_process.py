"""Checks that need a fresh interpreter: ``python -m driftopt``, which
modules a command loads, when the CLI builds its parser, and the
benchmark's set-up probe (perfbench/setup_probe.py) run on this checkout.

scipy is imported only by the QP oracle (its Cholesky factor), so every
other path starts with numpy alone, the rank-deficient builtin's KKT
multiplier face included.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from driftopt.problems import BUILTINS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PINNED = json.loads(Path(__file__).with_name("builtin_outputs.json").read_text())


def python(*args, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_driftopt_info(tmp_path):
    proc = python("-m", "driftopt", "info", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == PINNED["info"]


# Prints the sorted scipy modules loaded after each step, one JSON list a line.
IMPORT_PROBE = """
import contextlib, io, json, sys
from pathlib import Path

def scipy_modules():
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))

out = Path(sys.argv[1])
import driftopt
from driftopt import cli
scipy_modules()
for tag in ("num_6_1", "qp_6_2", "num_5_2_rank_deficient"):
    driftopt.builtin(tag)
scipy_modules()
csv = str(out / "num.csv")
for tag in ("num_6_1", "num_5_2_rank_deficient"):
    for argv in (["solve", "--builtin", tag, "--iters", "200", "--out", csv],
                 ["audit", "--builtin", tag, "--trace", csv],
                 ["kkt", "--builtin", tag],
                 ["fit", "--trace", csv, "--series", "obj", "--model", "power"]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert code == 0, argv
scipy_modules()
bundle = driftopt.builtin("qp_6_2")
driftopt.ClosedFormQpOracle(bundle.program, 4.0)
scipy_modules()
"""


def test_only_the_qp_oracle_imports_scipy(tmp_path):
    proc = python("-c", IMPORT_PROBE, str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(lines) == 4
    # import, the three builtin bundles, and NUM solve/audit/kkt/fit (the
    # rank-deficient multiplier face included): numpy only
    assert lines[:3] == [[], [], []]
    # the QP oracle's Cholesky factor needs scipy.linalg; no step loads
    # scipy.optimize
    assert "scipy.linalg" in lines[3]
    assert not any("scipy.optimize" in line for line in lines)


# Counts the argparse parsers built by importing the CLI, then by two commands.
PARSER_PROBE = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **kw: built.append(self) or init(self, *a, **kw)
from driftopt import cli
counts = [len(built)]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["kkt", "--builtin", "num_6_1"]) == 0
    counts.append(len(built))
print(counts)
"""


def test_importing_the_cli_builds_no_parser(tmp_path):
    # the benchmark's setup_s times the import; the parser (the top-level
    # one and one per subcommand) is built by the first command
    proc = python("-c", PARSER_PROBE, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "[0, 6, 6]\n"), proc.stderr


@pytest.mark.parametrize("source", ["builtin", "problem"])
def test_setup_probe_smoke(tmp_path, source):
    if source == "builtin":
        args = ["--builtin", "num_6_1", "qp_6_2"]
    else:
        path = tmp_path / "qp.json"
        path.write_text(json.dumps(BUILTINS["qp_6_2"]))
        args = ["--problem", str(path)]
    proc = python(str(ROOT / "perfbench" / "setup_probe.py"), str(SRC), *args,
                  cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    setup_s = json.loads(lines[0])["setup_s"]
    assert math.isfinite(setup_s) and setup_s > 0
