"""Command-line front end.

Subcommands: solve (run a solver, emit a CSV trace plus a JSON summary),
fit (decay-rate fit over a trace CSV), audit (check convergence guarantees
over a trace), kkt (print the ground-truth solution), info (list built-in
problems).

Exit codes: 0 success, 1 an audited bound failed, 2 usage or input error,
3 numerical failure.  Commands raise; ``main`` alone maps a failure to its
exit code and one stderr line, and shows a warning (a V below the
guarantee threshold) as one ``warning: ...`` line.
All output is deterministic.  A CSV number is printed exactly as
``"%.17g"`` prints it, so it reads back to the same double: numpy makes
the text (``csvtext``), once for each run of equal cells down a column,
and Python formats the cells numpy cannot decide.  In one process,
``audit`` and ``fit`` compare a trace with the bytes that the last
``solve`` wrote, 512 rows at a time, and skip the parse when they match.
``solve`` writes its trace and summary in place (``_rewrite``): over the
bytes of an existing file, cut to the new length only where the old file
was longer, never truncated to zero first and never fsynced.
"""

from __future__ import annotations

import argparse
import collections
import functools
import io
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .core import IterateTrace, _as_queue, _check_t
from .csvtext import format_rows
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


# The trace this process wrote last: its chunks, as _write_csv wrote them, and
# its read-only float columns by header name (None for a blank one), bitwise what
# a parse gives, as "%.17g" round-trips a double and t is core._check_t's integer.
_last_written: tuple[list[bytes], dict] | None = None


def _write_csv(path: Path, trace: IterateTrace) -> None:
    """Write the trace's ``columns`` with CRLF line ends, as ``csv.writer``
    does, every number as ``"%.17g"`` prints it (``csvtext.format_rows``,
    which formats a cell equal to the one above it once; for ``t``, an
    integer <= 2**53, that is ``"%d"``).  A None column is blank before
    the last column that is not (``f_err`` without a reference) and absent
    after it (the dual columns).  The file is written in place
    (``_rewrite``).  Once it is closed, its chunks (the header, then each
    512-row slice's text) and columns are ``_last_written``."""
    global _last_written
    _last_written = None
    cols = trace.columns()
    names, at = list(cols), [j for j, col in enumerate(cols.values()) if col is not None]
    header, present = names[:at[-1] + 1], [names[j] for j in at]
    # a present column's cell ends with a comma for itself and each blank after it
    seps = [b"," * (k - j) for j, k in zip(at, at[1:])] + [b"\r\n"]
    block = np.array([cols[name] for name in present], dtype=float)  # one row per column
    block.flags.writeable = False
    chunks = [(",".join(header) + "\r\n").encode(), *format_rows(block, seps)]
    _rewrite(path, chunks)
    _last_written = chunks, {**dict.fromkeys(header), **dict(zip(present, block))}


def _rewrite(path: Path, chunks) -> None:
    """Write ``chunks`` to ``path`` from offset 0, leaving the bytes that
    ``open(path, "wb")`` leaves, without its truncation to zero: ext4
    starts the writeback of a file truncated to zero when it is closed,
    which made a 1.24 MB rewrite 1.93 ms against 0.58 ms in place (2-core
    x86-64, rewrites 0.3 s apart).

    A new file gets the mode ``open`` gives it; an old one keeps its inode,
    mode and owner, and a symlink or hard link still leads to it.  Only
    where the old file was longer is it cut at the written length, also
    after a write that raises, so it holds exactly the bytes that reached
    it.  A FIFO or a device reports size 0, so it is never asked for its
    position, which a pipe cannot give.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        old_size = os.fstat(fd).st_size
        try:
            fh.writelines(chunks)
        finally:
            if old_size and fh.tell() < old_size:
                fh.truncate()


def _summary_path(out: Path) -> Path:
    return out.with_name(out.name + ".summary.json")


def _emit(doc, path: Path | None = None) -> int:
    """Print ``doc`` as JSON (and write it to ``path`` first, if given)."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise _Failure("non-finite number in the result") from None
    if path is not None:  # JSON text is ASCII; lines end as in text mode
        _rewrite(path, [(text + "\n").replace("\n", os.linesep).encode()])
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
            _write_csv(out, partial)
        raise

    _write_csv(out, trace)
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


def _read_trace_csv(path: Path, columns) -> dict:
    """Read the columns of a solve CSV whose names satisfy ``columns``.

    Returns {name: read-only float array} in header order; a column whose
    first data cell is blank (``f_err`` without a reference) maps to None.
    A seekable file is compared with the chunks this process wrote last,
    one at a time; if it holds them and nothing more, it takes the columns
    in ``_last_written``.  A file that differs, or a pipe, is parsed as
    UTF-8 from the same handle.  A header that repeats a column name, a
    row whose field count differs from the header's, a blank, non-numeric
    or non-finite cell in a parsed column, or a ``t`` that
    ``core._check_t`` refuses raises ValueError.
    """
    written, entry = _last_written or ((), None)
    with open(path, "rb") as fh:
        compared = entry is not None and fh.seekable()
        if compared and all(fh.read(len(c)) == c for c in written) and not fh.read(1):
            cols = {name: col for name, col in entry.items() if columns(name)}
        else:
            if compared:
                fh.seek(0)
            cols = _parse_trace_csv(fh, columns)
    for name, col in cols.items():
        if col is not None and not np.isfinite(col).all():
            raise ValueError(f"trace CSV column {name!r} holds a non-finite number")
    if cols.get("t") is not None:
        _check_t(cols["t"], "trace CSV column 't'")
    return cols


def _parse_trace_csv(fh, columns) -> dict:
    # read as open(path, encoding="utf-8") would: lines end at \r\n, \n or \r
    with io.TextIOWrapper(fh, encoding="utf-8") as text:
        lines = [line.rstrip("\n") for line in text]
    if not lines:
        raise ValueError("trace CSV is empty")
    header, data = lines[0].split(","), lines[1:]
    repeated = [name for name, n in collections.Counter(header).items() if n > 1]
    if repeated:
        raise ValueError(f"trace CSV repeats the column '{repeated[0]}'")
    if not data:
        raise ValueError("trace CSV has no data rows")
    commas = len(header) - 1
    if any(line.count(",") != commas for line in data):
        raise ValueError("trace CSV is malformed (ragged rows)")
    first = data[0].split(",")
    cols = {name: None for name in header if columns(name)}
    usecols = [j for j, name in enumerate(header) if name in cols and first[j]]
    if usecols:
        parsed = np.loadtxt(data, delimiter=",", usecols=usecols, ndmin=2,
                            comments=None).T.copy()
        parsed.flags.writeable = False
        cols.update(zip([header[j] for j in usecols], parsed))
    return cols


def cmd_fit(args) -> int:
    if not 0 < args.window_fraction <= 1:
        raise ValueError("--window-fraction must be in (0, 1]")
    lo = args.t_lo if args.t_lo is not None else -np.inf
    hi = args.t_hi if args.t_hi is not None else np.inf
    if not lo <= hi:
        raise ValueError("need numbers with --t-lo <= --t-hi")
    prefix = "f_err" if args.series == "obj" else "g_"
    try:
        cols = _read_trace_csv(Path(args.trace),
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
        cols = _read_trace_csv(path, lambda name: name != "f_err")
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
