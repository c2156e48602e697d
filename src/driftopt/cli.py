"""Command-line front end.

Subcommands: solve (run a solver, emit a CSV trace plus a JSON summary),
fit (decay-rate fit over a trace CSV), audit (check convergence guarantees
over a trace), kkt (print the ground-truth solution), info (list built-in
problems).

Exit codes: 0 success, 1 an audited bound failed, 2 usage or input error,
3 numerical failure.  Commands raise; ``main`` alone maps a failure to its
exit code and one stderr line, and shows a warning (a V below the
guarantee threshold) as one ``warning: ...`` line.
All output is deterministic.  The trace file is ``csvtext``'s.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .core import IterateTrace, _as_queue
from .csvtext import read_trace, rewrite, write_trace
from .diagnostics import (audit_bounds, audit_passed, fit_geometric, fit_power_decay,
                          max_violation)
from .problems import (BUILTIN_TAGS, ProblemBundle, _array, _number, builtin,
                       load_problem)
from .solver import choose_V, run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class _Failure(Exception):
    """A numerical failure (exit 3) that no library exception names."""


# The dual subgradient method with step c = 1/V is DPP at the same V.
ALGORITHMS = {"dpp": "dpp", "dpp-shifted": "dpp_shifted",
              "dual-subgradient": "dpp"}


def _load_bundle(args) -> ProblemBundle:
    if getattr(args, "builtin", None):
        return builtin(args.builtin)
    return load_problem(args.problem)


def _add_problem_source(parser: argparse.ArgumentParser) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=BUILTIN_TAGS,
                     help="built-in problem tag")
    src.add_argument("--problem", help="path to a JSON problem file")


def _parse_q0(text: str | None, m: int) -> np.ndarray:
    if text is None:
        return np.zeros(m)
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 1:
        return np.full(m, parts[0])
    if len(parts) != m:
        raise ValueError(f"--q0 needs 1 or {m} comma-separated values")
    return np.array(parts)


def _summary_path(out: Path) -> Path:
    return out.with_name(out.name + ".summary.json")


def _emit(doc, path: Path | None = None) -> int:
    """Print ``doc`` as JSON (and write it to ``path`` first, if given)."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise _Failure("non-finite number in the result") from None
    if path is not None:  # JSON text is ASCII; lines end as in text mode
        rewrite(path, [(text + "\n").replace("\n", os.linesep).encode()])
    print(text)
    return EXIT_OK


def cmd_solve(args) -> int:
    bundle = _load_bundle(args)
    program = bundle.program
    q0 = _parse_q0(args.q0, program.m)
    V = args.V if args.V is not None else choose_V(program)
    out = Path(args.out)
    try:
        trace = run(program, bundle.oracle, V=V, q0=q0, iters=args.iters,
                    variant=ALGORITHMS[args.algorithm], sample=args.sample,
                    reference=bundle.reference)
    except FloatingPointError as exc:
        partial = getattr(exc, "partial_trace", None)
        if partial is not None and len(partial):
            write_trace(out, partial)
        raise

    write_trace(out, trace)
    # the final block is the CSV's last row but its g_k, as its text reads back
    final = {name: None if col is None else float(col[-1])
             for name, col in trace.columns().items() if not name.startswith("g_")}
    final.update(t=int(final["t"]), max_violation=float(max_violation(trace.g_xbar[-1:])[0]))
    summary = {
        "problem": bundle.tag,
        "algorithm": args.algorithm,
        "V": V,
        "q0": q0.tolist(),
        "iters": args.iters,
        "sampling": args.sample,
        "samples": len(trace),
        "max_drift_residual": trace.max_drift_residual,
        "final": final,
    }
    return _emit(summary, _summary_path(out))


def cmd_fit(args) -> int:
    if not 0 < args.window_fraction <= 1:
        raise ValueError("--window-fraction must be in (0, 1]")
    lo = args.t_lo if args.t_lo is not None else -np.inf
    hi = args.t_hi if args.t_hi is not None else np.inf
    if not lo <= hi:
        raise ValueError("need numbers with --t-lo <= --t-hi")
    prefix = "f_err" if args.series == "obj" else "g_"
    try:
        cols = read_trace(Path(args.trace),
                               lambda name: name == "t" or name.startswith(prefix))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read trace: {exc}") from exc
    if cols.get("t") is None:
        raise ValueError("trace CSV lacks a 't' column")
    if args.series == "obj":
        if cols.get("f_err") is None:
            raise ValueError("trace CSV lacks an 'f_err' column")
        errors = cols["f_err"]
    else:
        gcols = [name for name in cols if name.startswith("g_")]
        if not gcols:
            raise ValueError("trace CSV lacks g_k columns")
        errors = max_violation(np.stack([cols[name] for name in gcols], axis=1))
    window = None if args.t_lo is None and args.t_hi is None else (lo, hi)
    fit_fn = fit_power_decay if args.model == "power" else fit_geometric
    try:
        fit = fit_fn(cols["t"], errors, window_fraction=args.window_fraction,
                     window=window)
    except ValueError as exc:
        raise _Failure(str(exc)) from exc
    return _emit(fit.to_dict())


def cmd_audit(args) -> int:
    if args.gamma is not None and not (np.isfinite(args.gamma) and args.gamma > 0):
        raise ValueError("--gamma must be positive and finite")
    bundle = _load_bundle(args)
    path = Path(args.trace)
    summary_path = Path(args.summary) if args.summary else _summary_path(path)
    try:
        cols = read_trace(path, lambda name: name != "f_err")
        with open(summary_path) as fh:
            summary = json.load(fh)
        problem, V = summary["problem"], _number(summary, "V", "summary")
        if not V > 0:
            raise ValueError("summary field 'V' must be positive")
        q0 = _as_queue(_array(summary, "q0", "summary"))
    except KeyError as exc:
        raise ValueError(f"the summary lacks the field {exc}") from exc
    except (OSError, ValueError, TypeError, RecursionError) as exc:  # RecursionError: deep JSON
        raise ValueError(f"cannot read trace/summary: {exc}") from exc
    if problem != bundle.tag:
        raise ValueError(f"the summary is for problem {problem!r}, not {bundle.tag!r}")
    if bundle.reference is None:
        raise _Failure("no ground-truth solution for this problem")
    trace = IterateTrace.from_columns(cols, bundle.program.m, V)
    gamma = args.gamma if args.gamma is not None else bundle.constant("gamma")
    report = audit_bounds(trace, bundle.reference, bundle.program, q0,
                          gamma=gamma, oracle=bundle.oracle)
    _emit(report)
    return EXIT_OK if audit_passed(report) else 1


def cmd_kkt(args) -> int:
    bundle = _load_bundle(args)
    if bundle.reference is None:
        raise _Failure(f"ground-truth solve failed: {bundle.reference_error}")
    ref = bundle.reference
    doc = {
        "problem": bundle.tag,
        "x_star": ref.x_star.tolist(),
        "f_star": ref.f_star,
        "lambda_star": ref.lambda_star.tolist(),
        # 1-based, matching the g_1..g_m CSV column naming
        "active_constraints": [k + 1 for k in ref.active_set],
        "slack_constraints": [k + 1 for k in range(bundle.program.m)
                              if k not in ref.active_set],
    }
    return _emit(doc)


def cmd_info(args) -> int:
    docs = []
    for tag in BUILTIN_TAGS:
        b = builtin(tag)
        docs.append({
            "tag": tag, "kind": b.kind,
            "n": b.program.n, "m": b.program.m,
            "constants": [{"name": c.name, "value": c.value, "source": c.source}
                          for c in b.constants],
            "default_V": choose_V(b.program),
            "has_reference": b.reference is not None,
        })
    return _emit(docs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared: parsing leaves
    it unchanged and reads sys.stdout/stderr only when it prints."""
    parser = argparse.ArgumentParser(
        prog="driftopt",
        description="Constrained convex optimization via drift-plus-penalty "
                    "and dual subgradient methods")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a solver and write a CSV trace")
    _add_problem_source(p)
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="dpp")
    p.add_argument("--V", type=float, default=None,
                   help="penalty parameter (default: guarantee threshold)")
    p.add_argument("--q0", default=None,
                   help="initial queue: scalar or comma-separated vector (default 0)")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--sample", default="log",
                   help="'log', 'linear' or 'linear:<k>' for every k-th "
                        "iteration (default log)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("fit", help="fit a decay model to a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--series", choices=("obj", "constraint"), required=True)
    p.add_argument("--model", choices=("power", "geometric"), required=True)
    p.add_argument("--window-fraction", type=float, default=0.5)
    p.add_argument("--t-lo", type=float, default=None)
    p.add_argument("--t-hi", type=float, default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("audit", help="audit convergence guarantees on a trace")
    _add_problem_source(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--summary", default=None,
                   help="JSON run summary (default: <trace>.summary.json)")
    p.add_argument("--gamma", type=float, default=None,
                   help="dual smoothness modulus override")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("kkt", help="print the ground-truth solution")
    _add_problem_source(p)
    p.set_defaults(fn=cmd_kkt)

    p = sub.add_parser("info", help="list built-in problems")
    p.set_defaults(fn=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    with warnings.catch_warnings():
        # a warning is one line, without the source path and line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                         file=sys.stderr)
        try:
            return args.fn(args)
        # a warning raised by -W error, or a request too large for memory
        except (OSError, ValueError, UserWarning, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (ArithmeticError, _Failure) as exc:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
