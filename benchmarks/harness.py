#!/usr/bin/env python
"""Perf-regression harness CLI: run the pinned micro-suite, record the
trajectory in ``BENCH_core.json``.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/harness.py --smoke
    PYTHONPATH=src python benchmarks/harness.py --rebaseline
    PYTHONPATH=src python benchmarks/harness.py --scenario bench_table1

Equivalent to ``moongen-repro bench``; the implementation lives in
``repro.perf`` (see docs/PERFORMANCE.md for how to read the output).
Exits 0 even on perf regressions — regressions are warnings (the CI
bench-smoke job surfaces them as annotations), not failures, because
wall-clock numbers are machine-dependent.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import perf  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="short runs (CI-sized workloads)")
    parser.add_argument("--batch", action="store_true",
                        help="run under the vectorized batch tier; records "
                             "the '-batch' modes plus delta_vs_event (the "
                             "tier's speedup over the event baseline)")
    parser.add_argument("--scenario", action="append", dest="scenarios",
                        choices=sorted(perf.SCENARIOS),
                        help="run only this scenario (repeatable)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="rounds per scenario; fastest wall time wins")
    parser.add_argument("--out", default=perf.BENCH_FILE,
                        help=f"trajectory file (default {perf.BENCH_FILE})")
    parser.add_argument("--rebaseline", action="store_true",
                        help="replace the stored baseline with this run")
    parser.add_argument("--warn-threshold", type=float, default=0.85,
                        help="warn when events/sec falls below this ratio "
                             "of baseline (default 0.85)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="shard scenario rounds across this many worker "
                             "processes (default 1: serial; fingerprints "
                             "are identical either way)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    results = perf.run_suite(args.scenarios, smoke=args.smoke,
                             repeats=args.repeats, jobs=args.jobs,
                             batch=args.batch)
    sweep_wall_s = time.perf_counter() - start
    doc = perf.write_bench(args.out, results, rebaseline=args.rebaseline,
                           smoke=args.smoke, jobs=args.jobs,
                           sweep_wall_s=sweep_wall_s, batch=args.batch)
    print(perf.format_report(doc))
    print(f"\nsuite wall time {sweep_wall_s:.2f} s with jobs={args.jobs}")
    print(f"wrote {args.out}")
    for warning in perf.check_regression(doc, threshold=args.warn_threshold):
        print(f"::warning::{warning}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
