"""Smoke test of the benchmark's per-layer tracer (perfbench/tracing.py).

The tracer looks driftopt's functions up by name; a name it needs that is
renamed or deleted shows here as a failed install or a zero count.
"""

import importlib.util
from pathlib import Path

from driftopt import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_counts_solve_and_audit(tmp_path, capsys):
    tracer = load_tracer()
    main = cli.main
    out = tmp_path / "qp.csv"
    tracer.install()
    try:
        solved = cli.main(["solve", "--builtin", "qp_6_2", "--iters", "50",
                           "--out", str(out)])
        audited = cli.main(["audit", "--builtin", "qp_6_2", "--trace", str(out)])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert (solved, audited) == (0, 0)
    assert tracer.calls["solver"] == 1
    assert tracer.calls["oracles.argmin"] > 0
    # the bundle constructor looks these up as driftopt.problems globals
    assert tracer.calls["reference"] > 0
    assert tracer.calls["dual_analysis"] > 0
    assert cli.main is main
