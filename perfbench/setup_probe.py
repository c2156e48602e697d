"""Time one fresh interpreter's set-up: ``import driftopt`` plus building
every problem bundle a workload uses (which includes the KKT ground truth).

    python3 perfbench/setup_probe.py SRC_DIR [--builtin TAG ...] [--problem FILE ...]

Prints one JSON line: {"setup_s": seconds}.
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    parser.add_argument("--builtin", nargs="*", default=[])
    parser.add_argument("--problem", nargs="*", default=[])
    args = parser.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))

    start = perf_counter()
    import driftopt
    for tag in args.builtin:
        driftopt.builtin(tag)
    for path in args.problem:
        driftopt.load_problem(path)
    elapsed = perf_counter() - start

    if src not in Path(driftopt.__file__).resolve().parents:
        print(f"error: imported driftopt from {driftopt.__file__}, not {src}",
              file=sys.stderr)
        return 2
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
