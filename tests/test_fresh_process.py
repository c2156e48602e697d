"""Checks that need a fresh interpreter: ``python -m driftopt``, which
modules a command loads, when the CLI builds its parser, that a one-shot
command prints and writes what a warm in-process one does, and the
benchmark's set-up probe (perfbench/setup_probe.py) run on this checkout.

driftopt needs numpy alone: with scipy blocked, every command runs on
every builtin, the QP oracle and the rank-deficient builtin's KKT
multiplier face included.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from driftopt import cli, problems
from driftopt.problems import BUILTINS
from test_perfbench_checks import load

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


# Blocks scipy, so that importing it raises, then runs every command on
# every builtin and prints the scipy modules loaded.
IMPORT_PROBE = """
import contextlib, io, json, sys
from pathlib import Path

sys.modules["scipy"] = None
out = Path(sys.argv[1])
from driftopt import cli
for tag in ("num_6_1", "qp_6_2", "num_5_2_rank_deficient"):
    csv = str(out / f"{tag}.csv")
    for argv in (["solve", "--builtin", tag, "--iters", "200", "--out", csv],
                 ["audit", "--builtin", tag, "--trace", csv],
                 ["kkt", "--builtin", tag],
                 ["fit", "--trace", csv, "--series", "obj", "--model", "power"]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert code == 0, argv
print(json.dumps(sorted(name for name, module in sys.modules.items()
                        if name.split(".")[0] == "scipy" and module is not None)))
"""


def test_no_command_imports_scipy(tmp_path):
    # solve/audit/kkt/fit on all three builtins, the QP oracle's solve with
    # 2VP and the rank-deficient multiplier face included: numpy only
    proc = python("-c", IMPORT_PROBE, str(tmp_path), cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


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
def test_one_shot_and_in_process_commands_agree(tmp_path, capsys, source):
    # a one-shot `python -m driftopt` builds its bundle afresh for each of
    # kkt, solve and audit; in process, solve and audit reuse the bundle
    # that kkt built, and a second pass hits the cache for all three.  All
    # print the same bytes and write the same CSV and summary.
    if source == "builtin":
        problem, gamma = ["--builtin", "num_5_2_rank_deficient"], []
    else:
        workloads = load("workloads")
        [(path, doc)] = [(path, doc) for name, path, doc in
                         workloads.random_problems(5, 0, tmp_path) if name == "qp_m5"]
        problem, gamma = ["--problem", str(path)], ["--gamma", repr(workloads.audit_gamma(doc))]

    def commands(out):
        trace = str(out / "trace.csv")
        return [["kkt", *problem],
                ["solve", *problem, "--iters", "2000", "--out", trace],
                ["audit", *problem, "--trace", trace, *gamma]]

    def written(out):
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    one_shot = tmp_path / "one_shot"
    one_shot.mkdir()
    printed = []
    for argv in commands(one_shot):
        proc = python("-m", "driftopt", *argv, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        printed.append(proc.stdout)
    problems._bundle.cache_clear()
    for warm in ("cold", "warm"):
        out = tmp_path / warm
        out.mkdir()
        hits = problems._bundle.cache_info().hits
        for argv, expect in zip(commands(out), printed):
            assert cli.main(argv) == 0, argv
            assert capsys.readouterr().out == expect, (warm, argv)
        assert problems._bundle.cache_info().hits - hits == (2 if warm == "cold" else 3)
        assert written(out) == written(one_shot), warm


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
