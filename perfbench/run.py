"""The driftopt benchmark.

    python3 perfbench/run.py --workload {builtin_long,dense_trace,random_instances} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One workload runs in this process, with
BLAS pinned to one thread, through the public ``driftopt.cli.main(argv)``,
so the cost of importing numpy and scipy is paid once (and measured on its
own as ``setup_s``).  The run makes whole rounds of the workload
(``workloads.py``), as many as take about S seconds on the machine the
benchmark was sized on (``workloads.round_count``), so that the seed alone
decides every command it runs, and checks every command's output
(``checks.py``).

--trace 0 reports the end-to-end metrics.  --trace 1 runs every round
twice, untraced and then traced (``tracing.py``), and reports the per-layer
metrics plus the tracing overhead.  Each metric is printed by name with its
unit; the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
Python, numpy and scipy versions, nproc, the seed and the BLAS thread
setting, is written to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS thread, set before numpy is first imported (by the modules below).
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import betainc  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (WORKLOADS, round_count, round_pipelines,  # noqa: E402
                       setup_sources, warmup_pipelines)

SETUP_REPEATS = 7
SETUP_KERNELS = 10  # speed samples before and after each set-up probe
PROBE_TIMEOUT_S = 120
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


# The one known defect a run may meet (workloads.py): kkt_solve_num finds no
# KKT point on some random NUM problem files that have one.  ``kkt`` on such
# a file, and then ``audit`` on it, exit 3 with these messages.
KNOWN_REFUSALS = {
    "kkt": "error: ground-truth solve failed: no active subset produced a KKT point",
    "audit": "error: no ground-truth solution for this problem",
}
# The defect hits about 1 in 200 files; refusals on more of a run's NUM kkt
# commands than this make the run wrong.
MAX_REFUSED_SHARE = 0.05


@dataclass
class RoundStats:
    """Times and outcomes of one round's CLI commands.

    Times are in reference seconds (speed.py); ``raw_wall_s`` is the
    measured total.  Checks are not timed.  ``wall_s`` and ``raw_wall_s``
    cover every command; the per-pipeline entries only pipelines whose
    commands all passed.
    """

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    csv_rows: int = 0
    # Per pipeline name: its solve's iterations (from its summary) and
    # time, the time to verify its trace, the time of all its commands,
    # and solver.iters_to_eps of its solve.
    solve_iters: dict[str, int] = field(default_factory=dict)
    solve_s: dict[str, float] = field(default_factory=dict)
    verify_s: dict[str, float] = field(default_factory=dict)
    instance_s: dict[str, float] = field(default_factory=dict)
    iters_to_eps: dict = field(default_factory=dict)


def known_refusal(op, rc, stderr: str, kkt_refused: bool) -> bool:
    """Whether a failed command is the known kkt_solve_num defect: exit 3
    with its message, from ``kkt`` on a NUM problem file, or from
    ``audit`` on a file whose ``kkt`` was refused."""
    if rc != 3 or op.expect.get("problem", {}).get("kind") != "num":
        return False
    if op.kind == "audit" and not kkt_refused:
        return False
    return KNOWN_REFUSALS.get(op.kind) in stderr.splitlines()


class NoPipelinePassed(Exception):
    """No pipeline of the run passed every check, so no time can be
    reported."""


class Runner:
    """Runs CLI commands in-process, times them and checks their output.

    Each command's time is scaled by the speed kernels run just before and
    just after it, about one per ``speed.SAMPLE_EVERY_S`` of its time.

    A command fails on a non-zero exit, an uncaught exception or a failed
    output check.  Every failure is wrong except the known defect
    (``known_refusal``), and that one too when it hits more than
    ``MAX_REFUSED_SHARE`` of the NUM kkt commands.  The run is correct
    when nothing was wrong.
    """

    def __init__(self):
        import driftopt.cli
        self.cli = driftopt.cli
        self.attempted = 0
        self.num_kkt = 0
        self.failures: list[dict] = []
        self._kernels = [speed.kernel_s()]

    @property
    def correct(self) -> bool:
        refused = sum(1 for f in self.failures if f["refused"] and f["argv"][0] == "kkt")
        return (not any(not f["refused"] for f in self.failures)
                and refused <= MAX_REFUSED_SHARE * self.num_kkt)

    def run_op(self, op, pipeline: str, kkt_refused: bool):
        """Returns (reference seconds, measured seconds, outcome, check
        info); outcome is "ok", "refused" or "wrong"."""
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op.argv)
        except Exception:  # an uncaught exception is a failed command
            rc = "uncaught exception"
            err.write(traceback.format_exc())
        seconds = perf_counter() - start
        before = self._kernels
        self._kernels = [speed.kernel_s()
                         for _ in range(1 + int(seconds / speed.SAMPLE_EVERY_S))]
        scaled = seconds * speed.factor(before + self._kernels)
        ok, reason, info = checks.check(op, rc, out.getvalue())
        self.attempted += 1
        if op.kind == "kkt" and op.expect["problem"]["kind"] == "num":
            self.num_kkt += 1
        if ok:
            return scaled, seconds, "ok", info
        refused = known_refusal(op, rc, err.getvalue(), kkt_refused)
        self.failures.append({"pipeline": pipeline, "argv": op.argv,
                              "reason": reason, "refused": refused,
                              "stderr": err.getvalue()[-2000:]})
        return scaled, seconds, "refused" if refused else "wrong", info

    def run_round(self, pipelines) -> RoundStats:
        stats = RoundStats()
        for pipeline in pipelines:
            total = verify = solve = 0.0
            rows = readers = 0
            passed, kkt_refused, info_solve = True, False, {}
            for op in pipeline.ops:
                seconds, raw, outcome, info = self.run_op(op, pipeline.name, kkt_refused)
                total += seconds
                stats.raw_wall_s += raw
                passed &= outcome == "ok"
                kkt_refused |= op.kind == "kkt" and outcome == "refused"
                if op.kind == "solve":
                    solve, info_solve = seconds, info
                    rows = info.get("rows", 0)
                elif op.kind in ("audit", "fit"):
                    verify += seconds
                    readers += 1
            stats.wall_s += total
            stats.csv_rows += rows * (1 + readers)
            if passed:
                name = pipeline.name
                stats.solve_s[name] = solve
                stats.solve_iters[name] = info_solve["iters"]
                stats.iters_to_eps[name] = info_solve["iters_to_eps"]
                stats.verify_s[name] = verify
                stats.instance_s[name] = total
        return stats


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics, weighted by a beta distribution centred on p."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def _environment(args) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def measure_setup(workload: str, workdir: Path):
    """Set-up times from fresh interpreters, each with the speed factor of
    the kernels run just before and after it (after one untimed warm-up, so
    byte-code compilation is not counted)."""
    tags, problems = setup_sources(workload, workdir)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src")]
    if tags:
        cmd += ["--builtin", *tags]
    if problems:
        cmd += ["--problem", *map(str, problems)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    times, factors = [], []
    for i in range(SETUP_REPEATS + 1):
        kernel = [speed.kernel_s() for _ in range(SETUP_KERNELS)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        kernel += [speed.kernel_s() for _ in range(SETUP_KERNELS)]
        if i:
            times.append(json.loads(proc.stdout)["setup_s"])
            factors.append(speed.factor(kernel))
    return times, factors


def _rounds(count: int, make_round) -> tuple[list, list[float]]:
    """Run make_round(index) for index < count; returns the results and
    each round's elapsed seconds (checks and speed kernels included)."""
    results, elapsed = [], []
    for index in range(count):
        start = perf_counter()
        results.append(make_round(index))
        elapsed.append(perf_counter() - start)
    return results, elapsed


def end_to_end(args, runner, workdir: Path) -> tuple[dict, dict]:
    setup, setup_factors = measure_setup(args.workload, workdir)
    runner.run_round(warmup_pipelines(args.workload, args.seed, workdir))

    rounds, elapsed = _rounds(round_count(args.workload, args.seconds, traced=False),
                              lambda r: runner.run_round(
                                  round_pipelines(args.workload, args.seed, r, workdir)))

    # Per pipeline name (the same in every round) the median over rounds
    # gives its typical time, so that a slow stretch or a heavy instance
    # shifts few samples; wall_s and iters_per_s sum these over the names
    # and the p50s take their median.  Both the per-name median and
    # instance_s.p90, which pools every pipeline of the run, use the
    # Harrell-Davis estimator: it weighs all order statistics, so it is
    # steadier than one or two of them on the heavy KKT tail of
    # random_instances.
    # A pipeline that failed in a round has no sample in it.
    def typical(attr) -> dict:
        samples = defaultdict(list)
        for s in rounds:
            for name, value in getattr(s, attr).items():
                samples[name].append(value)
        return {name: hd_quantile(v, 0.5) for name, v in samples.items()}

    instance = typical("instance_s")
    if not instance:
        raise NoPipelinePassed
    iters = sum(typical("solve_iters").values())
    pooled = [t for s in rounds for t in s.instance_s.values()]
    per = f"Harrell-Davis median of {len(rounds)} rounds"
    names = f"over {len(instance)} pipelines of their {per}"
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in zip(setup, setup_factors)), "s",
                    f"median of {len(setup)} fresh interpreters"),
        "wall_s": (sum(instance.values()), "s", f"sum {names}"),
        "iters_per_s": (iters / sum(typical("solve_s").values()), "1/s",
                        f"{iters:.0f} iterations over the sum of the solves' {per}"),
        "verify_s.p50": (statistics.median(typical("verify_s").values()), "s",
                         f"median {names}"),
        "instance_s.p50": (statistics.median(instance.values()), "s", f"median {names}"),
        "instance_s.p90": (hd_quantile(pooled, 0.9), "s",
                           f"Harrell-Davis p90 of n={len(pooled)} pipelines"),
        "fail_frac": (len(runner.failures) / runner.attempted, "ratio",
                      f"{len(runner.failures)} of {runner.attempted} commands"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB", "benchmark process"),
    }
    detail = {"raw_setup_s": setup, "setup_factor": setup_factors,
              "round_elapsed_s": elapsed,
              "raw_round_wall_s": [s.raw_wall_s for s in rounds],
              "round_wall_s": [s.wall_s for s in rounds],
              "verify_s": [s.verify_s for s in rounds],
              "instance_s": [s.instance_s for s in rounds]}
    return metrics, detail


def per_layer(args, runner, workdir: Path, results: Path) -> tuple[dict, dict]:
    runner.run_round(warmup_pipelines(args.workload, args.seed, workdir))
    tracer = Tracer()
    first: dict = {}  # calls per layer after the first traced round

    def paired_round(r):
        pipelines = round_pipelines(args.workload, args.seed, r, workdir)
        plain = runner.run_round(pipelines)
        tracer.install()
        try:
            traced = runner.run_round(pipelines)
        finally:
            tracer.restore()
        if not first:
            first.update(tracer.calls)
        return plain, traced

    pairs, elapsed = _rounds(round_count(args.workload, args.seconds, traced=True),
                             paired_round)
    tracer.dump(results / f"{args.workload}-seed{args.seed}-spans.json")

    # Counts come from the first round, which the seed alone decides, so
    # they repeat exactly between runs.  Times are averaged over all traced
    # rounds, in reference seconds (speed.py) at their overall speed factor.
    n = len(pairs)
    run_factor = sum(t.wall_s for _, t in pairs) / sum(t.raw_wall_s for _, t in pairs)
    self_s = defaultdict(float, {k: v * run_factor for k, v in tracer.self_s.items()})
    calls = tracer.calls

    def count(layer):
        return float(first.get(layer, 0))

    def mean_us(layer):
        return self_s[layer] / calls[layer] * 1e6 if calls[layer] else 0.0

    def per_round_s(layer):
        return self_s[layer] / n

    iters = sum(sum(t.solve_iters.values()) for _, t in pairs)
    eps = pairs[0][0].iters_to_eps.values()
    metrics = {
        "solver.self_us_per_iter": (self_s["solver"] / iters * 1e6 if iters else 0.0, "us",
                                    "run() minus oracle, program, queue-state and append calls"),
        "solver.iters": (float(sum(pairs[0][1].solve_iters.values())), "count",
                         "first round"),
        "solver.iters_to_eps": (float(sum(t for t in eps if t is not None)), "count",
                                "sum over the first round's solves"),
        "solver.eps_unreached": (float(sum(t is None for t in eps)), "count",
                                 "first-round solves never within eps"),
        "oracles.argmin_calls": (count("oracles.argmin"), "count", "first round"),
        "oracles.argmin_us": (mean_us("oracles.argmin"), "us", "per call"),
        "core.queue_state_calls": (count("core.queue_state"), "count", "first round"),
        "core.queue_state_us": (mean_us("core.queue_state"), "us", "per call"),
        "core.program_eval_calls": (count("core.program_eval"), "count", "first round"),
        "core.program_eval_us": (mean_us("core.program_eval"), "us", "per call"),
        "core.trace_samples": (count("core.trace_append"), "count", "first round"),
        "core.trace_append_us": (mean_us("core.trace_append"), "us", "per call"),
        "cli.self_s": (per_round_s("cli"), "s", "per round"),
        "cli.csv_rows": (float(pairs[0][1].csv_rows), "count",
                         "rows written plus rows read, first round"),
        "diagnostics.audit_s": (per_round_s("diagnostics.audit"), "s", "per round"),
        "diagnostics.fit_s": (per_round_s("diagnostics.fit"), "s", "per round"),
        "problems.bundle_s": (per_round_s("problems"), "s", "per round, KKT excluded"),
        "problems.bundles": (count("problems"), "count", "first round"),
        "reference.kkt_calls": (count("reference"), "count", "first round"),
        "reference.kkt_s": (per_round_s("reference"), "s", "per round"),
        "dual_analysis.calls": (count("dual_analysis"), "count", "first round"),
        "dual_analysis.s": (per_round_s("dual_analysis"), "s", "per round"),
        "trace_overhead_frac": (sum(t.wall_s for _, t in pairs)
                                / sum(p.wall_s for p, _ in pairs) - 1.0, "ratio",
                                f"traced over untraced wall time, {n} round pairs"),
    }
    detail = {"rounds": n, "pair_elapsed_s": elapsed, "iters_to_eps": dict(sorted(pairs[0][0].iters_to_eps.items())),
              "speed_factor": run_factor, "raw_self_s": dict(tracer.self_s),
              "calls": dict(calls)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "driftopt" / "__init__.py").is_file():
        print(f"error: no driftopt sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import driftopt.cli
    if src not in Path(driftopt.cli.__file__).resolve().parents:
        print(f"error: driftopt imported from {driftopt.cli.__file__}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work"
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    runner = Runner()
    try:
        if args.trace:
            metrics, detail = per_layer(args, runner, workdir, results)
        else:
            metrics, detail = end_to_end(args, runner, workdir)
    except NoPipelinePassed:
        for failure in runner.failures:
            print(f"FAILED {failure['pipeline']}: {failure['reason']}", file=sys.stderr)
        print("error: no pipeline passed its checks", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(args)
    failed = len(runner.failures)
    correct = runner.correct
    print(" ".join(f"{k}={v}" for k, v in env.items() if k != "blas_threads")
          + f" blas_threads=1 ({','.join(BLAS_THREAD_VARS)})")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<26} {value:>16.6g} {unit:<6} {note}")
    for failure in runner.failures:
        print(f"{'FAILED' if failure['refused'] else 'WRONG'} {failure['pipeline']}: "
              f"{failure['reason']}: "
              f"{' '.join(failure['argv'])}")
    doc = {"environment": env, "correct": correct, "attempted": runner.attempted,
           "failed": failed,
           "metrics": {k: {"value": v, "unit": u, "note": note}
                       for k, (v, u, note) in metrics.items()},
           "detail": detail, "failures": runner.failures}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(doc, indent=1))

    # fail_frac is reported above and carried by attempted/failed; it is
    # zero on a correct program, so it is not a bounded metric.
    reported = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                if k != "fail_frac"}
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
