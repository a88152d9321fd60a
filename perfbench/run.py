#!/usr/bin/env python3
"""Benchmark of the MoonGen reproduction's simulator: one workload, one run.

    python3 perfbench/run.py --workload tx_linerate --seed 9 --seconds 30 \\
        --trace 0

Run from the repository root.  Each workload runs in fresh processes
(``worker.py``) with the library's defaults: ``REPRO_SCHEDULER`` and
``REPRO_BENCH_JOBS`` are removed from their environment.

``--trace 0`` first starts :data:`SETUP_PROBES` processes that only set up
(import, build, one warm-up op) and then the measuring process, and prints
the end-to-end metrics.  ``--trace 1`` starts one traced process and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("tx_linerate", "dut_latency", "rfc2544_search")
#: Set-up-only processes per untraced run; with the measuring process's
#: own set-up, ``setup_s`` is the median of this many plus one samples.
SETUP_PROBES = 4
#: Wall-clock limit of one worker process.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_SCHEDULER", None)
    env.pop("REPRO_BENCH_JOBS", None)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_worker(role: str, args, timeout_s: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} worker timed out after {timeout_s} s") \
            from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def measure(args, deadline: float) -> dict:
    setups = [run_worker("setup", args, deadline - time.monotonic())
              ["setup_s"] for _ in range(SETUP_PROBES)]
    res = run_worker("measure", args, deadline - time.monotonic())
    setups.append(res["setup_s"])
    packets = sum(res["op_packets"])
    raw, norm = res["op_times_s"], res["op_norm_s"]
    metrics = {
        "sim_pps_norm": (packets / sum(norm), "1/s"),
        "op_s_p50_norm": (statistics.median(norm), "s"),
        "op_s_p90_norm": (statistics.quantiles(norm, n=10)[-1], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
        "ok_frac": (1.0 - res["failed"] / res["attempted"], "frac"),
    }
    # The same figures in plain host seconds, printed for reading only:
    # the host's drift moves them by more than any bound could allow.
    host = {
        "sim_pps_host": (packets / sum(raw), "1/s"),
        "op_s_p50": (statistics.median(raw), "s"),
        "op_s_p90": (statistics.quantiles(raw, n=10)[-1], "s"),
        "probe_s_p50": (statistics.median(res["probe_times_s"]), "s"),
    }
    return res | {"metrics": metrics, "host_metrics": host}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            res = run_worker("trace", args, CHILD_TIMEOUT_S)
        else:
            res = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": res["numpy"]}
    print(f"host {json.dumps(host)}")
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    for line in res["errors"]:
        print(f"failed op: {line}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for name, (value, unit) in res.get("host_metrics", {}).items():
        print(f"  (host) {name:<33} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
