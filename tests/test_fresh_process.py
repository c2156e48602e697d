"""Checks that need a fresh interpreter: ``python -m driftopt``, which
modules a command loads, when the CLI builds its parser and the CSV
formatter its tables, that a one-shot command prints and writes what a
warm in-process one does (with the bundle cache, the queue cache and the
columns of the trace just written), and the benchmark's set-up probe
(perfbench/setup_probe.py) and runner (perfbench/run.py) run on this
checkout.

driftopt needs numpy alone: with scipy blocked, every command runs on
every builtin, the QP oracle and the rank-deficient builtin's KKT
multiplier face included, and none loads hashlib.  Beside that probe, a
parse of every test module (no fresh interpreter needed) finds no scipy
import, so the tests need none either.
"""

import ast
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from driftopt import cli, csvtext, problems, solver
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
# every builtin and prints the scipy and hashlib modules loaded.
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
                        if module is not None and (name.split(".")[0] == "scipy"
                                                   or name in ("hashlib", "_hashlib")))))
"""


def test_no_command_imports_scipy(tmp_path):
    # solve/audit/kkt/fit on all three builtins, the QP oracle's solve with
    # 2VP and the rank-deficient multiplier face included: numpy only; and
    # no hashlib, so no OpenSSL: the trace cache compares bytes
    proc = python("-c", IMPORT_PROBE, str(tmp_path), cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_no_test_module_imports_scipy():
    # the test extra is pytest and hypothesis: an import of scipy in any
    # test module would make scipy necessary again
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), (path.name, node.lineno)


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


# Reports, after the import and after each command, whether the CSV
# formatter has built its tables.
TABLES_PROBE = """
import contextlib, io, sys
import driftopt
from driftopt import cli, csvtext
built = [csvtext._tables.cache_info().currsize == 1]
for argv in (["kkt", "--builtin", "num_6_1"], ["info"],
             ["audit", "--builtin", "num_6_1", "--trace", sys.argv[1]],
             ["solve", "--builtin", "num_6_1", "--iters", "10", "--out", sys.argv[2]]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    built.append(csvtext._tables.cache_info().currsize == 1)
print(built)
"""


def test_the_csv_formatter_builds_its_tables_on_the_first_write(tmp_path, capsys):
    # the benchmark's setup_s times the import; kkt, info and the audit of a
    # file another process wrote format no CSV
    trace = tmp_path / "trace.csv"
    assert cli.main(["solve", "--builtin", "num_6_1", "--iters", "200", "--out", str(trace)]) == 0
    capsys.readouterr()
    proc = python("-c", TABLES_PROBE, str(trace), str(tmp_path / "new.csv"), cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "[False, False, False, False, True]\n"), proc.stderr


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


@pytest.mark.parametrize("tag", ["num_6_1", "qp_6_2"])
def test_reads_of_the_trace_just_written_print_what_a_fresh_process_does(
        tmp_path, capsys, monkeypatch, tag):
    # in process, audit and both fits take the columns that solve wrote; a
    # fresh `python -m driftopt` parses the file.  Both print the same bytes.
    trace = str(tmp_path / "trace.csv")
    assert cli.main(["solve", "--builtin", tag, "--iters", "2000", "--sample", "linear:7",
                     "--out", trace]) == 0
    capsys.readouterr()
    monkeypatch.setattr(csvtext, "_parse_trace", None)  # a parse would raise
    for argv in (["audit", "--builtin", tag, "--trace", trace],
                 *(["fit", "--trace", trace, "--series", series, "--model", "power"]
                   for series in ("obj", "constraint"))):
        code = cli.main(argv)
        warm = capsys.readouterr()
        proc = python("-m", "driftopt", *argv, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, warm.out, warm.err), argv


def test_a_solve_that_copies_its_queue_writes_what_a_fresh_process_does(
        tmp_path, capsys, monkeypatch):
    # in process, dpp-shifted and the dual subgradient method at dpp's V,
    # and dpp again, copy the queue rows that the first dpp solve stepped; a
    # fresh `python -m driftopt` steps its own.  Both print and write the
    # same bytes.
    stepped, step = [], solver._step_to_fixed_point
    monkeypatch.setattr(solver, "_step_to_fixed_point",
                        lambda steps, Q: stepped.append(len(Q)) or step(steps, Q))
    for i, algorithm in enumerate(["dpp", "dpp-shifted", "dual-subgradient", "dpp"]):
        argv = ["solve", "--builtin", "num_6_1", "--algorithm", algorithm, "--iters", "10000"]
        out = [tmp_path / f"{where}{i}.csv" for where in ("warm", "fresh")]
        stepped.clear()
        code = cli.main([*argv, "--out", str(out[0])])
        warm = capsys.readouterr()
        assert bool(stepped) == (i == 0), algorithm
        proc = python("-m", "driftopt", *argv, "--out", str(out[1]), cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, warm.out, warm.err)
        for suffix in ("", ".summary.json"):
            written = [Path(f"{path}{suffix}").read_bytes() for path in out]
            assert written[0] == written[1], (algorithm, suffix)


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


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None,
                    reason="perfbench/run.py imports scipy")
def test_benchmark_runner_smoke(tmp_path):
    # a copy of src/ and perfbench/, so that .perfbench_work/ lands in tmp_path
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = python(str(tmp_path / "perfbench" / "run.py"), "--workload", "dense_trace",
                  "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stdout
