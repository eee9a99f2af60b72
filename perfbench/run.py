#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer figures for two workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fault-matrix --seed 0 --seconds 55 --trace 0

``--trace 0`` measures the workload with tracing off and prints every
end-to-end metric; ``--trace 1`` makes one traced re-drive of the workload and
prints the per-layer metrics.  Both check the program's outputs, print a
table of metrics by name and unit, and end with one JSON line::

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

The exit code is 0 when every checked operation succeeded, 1 when one failed
(``error_rate`` > 0) and 2 on bad arguments or a directory without the
``src/repro`` sources.  NOTES.md gives the workloads, the metrics and what
each per-layer figure should move.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("fault-matrix", "mtest-grid")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one timed set-up in a fresh process (see Bench.setup_times).
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: error: no repro sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_workloads as bench_module

    if args.setup_probe:
        return bench_module.setup_probe(args)

    workdir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    bench = bench_module.Bench(args.workload, args.seed, workdir)
    try:
        bench.prepare()
        if args.trace:
            return bench_module.emit(bench, bench.traced(), bench_module.PER_LAYER, args)
        bench.timed(args.seconds)
        bench.stop_server()
        rss = bench_module.peak_rss_mb()
        setup_times = bench.setup_times()
        return bench_module.emit(bench, bench.end_to_end(setup_times, rss), bench_module.END_TO_END, args)
    finally:
        bench.stop_server()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
