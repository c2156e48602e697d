"""Byte-identity check of the CLI's outputs over a fixed command matrix.

    python tests/parity.py [CHECKOUT] > digests.txt

Runs, through ``driftopt.cli.main`` in one process, every builtin x
algorithm (dpp, dpp-shifted, dual-subgradient) x iters in {1, 2, 4095,
4096, 4097, 8193, 20000} x sample in {log, linear:7} x q0 in {0, 2}: each
``solve`` is followed by ``audit`` and the four ``fit``s of its trace
({obj, constraint} x {power, geometric}).  Then, for the reference, it
writes seeded random problem files of both kinds with m, n <= 8
(``test_problems.random_document``, seeds 0-39 of each kind) and runs
``kkt``, a 2,000-iteration ``solve`` and ``audit`` on each.  The whole
matrix runs twice, so the second pass meets the queue rows the first one
kept: 3,504 commands.  It imports ``driftopt`` from CHECKOUT's ``src/``
(default: the checkout this script is in) and prints one line per
command: the pass, the argv, with paths relative to the pass's temporary
directory, and a sha256 over the exit code, stdout, stderr and every file
the command wrote.  Two checkouts give the same bytes where ``diff`` of
their outputs is empty; the run time goes to stderr.

This is not a tier-1 test module (pytest collects ``test_*.py`` only) and
installs nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ALGORITHMS = ("dpp", "dpp-shifted", "dual-subgradient")
ITERS = (1, 2, 4095, 4096, 4097, 8193, 20000)
SAMPLES = ("log", "linear:7")
Q0S = ("0", "2")
PASSES = 2
KINDS, FILE_SEEDS, FILE_ITERS = ("num", "qp"), range(40), 2000


def files(where: Path) -> dict[str, tuple[int, bytes]]:
    """Each file under ``where`` by relative name: (mtime in ns, bytes)."""
    return {str(p.relative_to(where)): (p.stat().st_mtime_ns, p.read_bytes())
            for p in sorted(where.rglob("*")) if p.is_file()}


def digest(main, argv: list[str], where: Path) -> str:
    """sha256 of ``main(argv)``'s exit code, stdout, stderr and the files it
    wrote under ``where``, new ones and rewritten ones, each with its name."""
    before = files(where)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = [(name, data) for name, (mtime, data) in files(where).items()
               if before.get(name, (None, None)) != (mtime, data)]
    h = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue(), *(x for w in written for x in w)):
        data = part if isinstance(part, bytes) else part.encode()
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def commands(case: str, tag: str, algorithm: str, iters: int, sample: str,
             q0: str) -> list[list[str]]:
    """The solve of one matrix point into directory ``case``, its audit and fits."""
    trace = f"{case}/trace.csv"
    return [["solve", "--builtin", tag, "--algorithm", algorithm, "--iters", str(iters),
             "--sample", sample, "--q0", q0, "--out", trace],
            ["audit", "--builtin", tag, "--trace", trace],
            *(["fit", "--trace", trace, "--series", series, "--model", model]
              for series in ("obj", "constraint") for model in ("power", "geometric"))]


def file_commands(case: str, kind: str, seed: int) -> list[list[str]]:
    """Write the random ``kind`` file of ``seed`` into directory ``case``;
    its kkt, its solve and the solve's audit."""
    from test_problems import random_document
    problem, trace = f"{case}/{kind}{seed}.json", f"{case}/trace.csv"
    Path(problem).write_text(json.dumps(random_document(np.random.default_rng(seed), kind)))
    return [["kkt", "--problem", problem],
            ["solve", "--problem", problem, "--iters", str(FILE_ITERS), "--out", trace],
            ["audit", "--problem", problem, "--trace", trace]]


def run(checkout: Path) -> int:
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import driftopt
    from driftopt.cli import main
    from driftopt.problems import BUILTIN_TAGS
    if Path(driftopt.__file__).resolve().parents[1] != src:  # not the checkout's own package
        print(f"error: driftopt was imported from {driftopt.__file__}, not {src}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "tests"))
    count, start, home = 0, time.perf_counter(), os.getcwd()
    matrix = [(commands, point) for point in
              itertools.product(BUILTIN_TAGS, ALGORITHMS, ITERS, SAMPLES, Q0S)]
    matrix += [(file_commands, point) for point in itertools.product(KINDS, FILE_SEEDS)]
    for pass_index in range(PASSES):
        with tempfile.TemporaryDirectory(prefix="driftopt-parity-") as tmp:
            os.chdir(tmp)
            try:
                for case, (case_commands, point) in enumerate(matrix):
                    where = Path(tmp, str(case))
                    where.mkdir()
                    for argv in case_commands(str(case), *point):
                        print(pass_index, *argv, digest(main, argv, where))
                        count += 1
            finally:
                os.chdir(home)
    print(f"{count} commands in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run(Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT))
