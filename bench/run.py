#!/usr/bin/env python3
"""The gchw benchmark: one client, one thread, a closed loop over one workload.

Run from the repository root::

    python3 bench/run.py --workload bulk-text-L2 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every operation's output is checked.  The line
before the last is a JSON report with every metric that applies to the
workload, the exact counts (``wire_digest``...) and the sample counts; the
last line is ``{"correct", "attempted", "failed", "metrics"}``.  The
workloads and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "gchw" / "__init__.py").is_file():
        print(f"error: the gchw sources are missing ({SRC_DIR})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    from runner import run_benchmark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    report = result.pop("report")
    for name, metric in report["metrics"].items():
        print(f"{args.workload:14s} {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    if report["failures"]:
        print("failures:", *report["failures"], sep="\n  ", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
