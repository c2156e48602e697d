"""Smoke test of the benchmark's output checks (perfbench/checks.py) on one
random_instances pipeline, run through the CLI as the benchmark runs it.

The pipeline is seed 20, round 5's ``num_m8`` file: kkt, a short solve,
then audit.  Its optimum's multipliers are reached only through Newton
iterates of either sign.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from driftopt import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_random_num_pipeline_passes_the_benchmark_checks(tmp_path):
    checks, workloads = load("checks"), load("workloads")
    pipelines = workloads.round_pipelines("random_instances", 20, 5, tmp_path)
    (pipeline,) = [p for p in pipelines if p.name == "num_m8"]
    assert [op.kind for op in pipeline.ops] == ["kkt", "solve", "audit"]
    for op in pipeline.ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
        ok, reason, _ = checks.check(op, rc, out.getvalue())
        assert ok, f"{op.kind}: {reason} {err.getvalue()}"
