"""One workload process of the benchmark (started by ``run.py``).

Roles:

* ``setup`` -- import, build the workload, run one untimed warm-up op and
  report the seconds since the parent started this process;
* ``measure`` -- the same set-up, then ops in a closed loop for
  ``--seconds`` (and at least ``MIN_OPS`` ops), untraced, with a host-speed
  probe (``probe.py``) after every op;
* ``trace`` -- rounds of one untraced and one traced cycle of ops for
  ``--seconds``, the per-layer table, and the proof that tracing did not
  change the program.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import numpy

import layers
import probe
import workloads

#: ``trace.coverage`` must lie in this range: the layers' self times sum to
#: at most the traced wall time (up to timer rounding), and the part no
#: layer owns -- building each op's environment, the harness loop and
#: callbacks no layer owns -- stays below the lower bound's complement.
COVERAGE_RANGE = (0.95, 1.001)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(args) -> workloads.Workload:
    workload = workloads.make(args.workload, args.seed)
    workload.warmup(workloads.Driver())
    return workload


def measure(args, workload, setup_s: float) -> dict:
    probe.probe()  # warm-up
    rec = workloads.Recorder(workload.check,
                             deadline=time.perf_counter() + args.seconds,
                             min_ops=workloads.MIN_OPS, probe=probe.probe)
    workload.run(workloads.Driver(), rec)
    return {
        "setup_s": setup_s,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
        "op_times_s": rec.times,
        "op_packets": rec.op_packets,
        "probe_times_s": rec.probe_times,
        "op_norm_s": probe.normalize(rec.times, rec.probe_times),
        "peak_rss_mib": peak_rss_mib(),
    }


class BatchStats:
    """Sums ``BatchTier.stats()`` over the ops' environments."""

    def __init__(self) -> None:
        self.frames = 0
        self.fallbacks = 0

    def __call__(self, env) -> None:
        tier = getattr(env, "batch", None)
        if tier is not None:
            stats = tier.stats()
            self.frames += stats["frames"]
            self.fallbacks += sum(stats["fallbacks"].values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def extras(outputs, batch: BatchStats, packets: int,
           searches: int) -> dict:
    """The per-layer ratios beyond self time and calls."""
    outs = [o for o in outputs if o]

    def total(key):
        return sum(o.get(key, 0) for o in outs)

    return {
        "batch.frames_frac": (_ratio(batch.frames, packets), "frac"),
        "batch.fallbacks": (batch.fallbacks, "count"),
        "core.timestamping.probes_lost_frac": (
            _ratio(total("probes_lost"), total("probes_attempted")), "frac"),
        "dut.forwarder.drop_frac": (
            _ratio(total("dut_dropped"),
                   total("dut_rx") + total("dut_dropped")), "frac"),
        "analysis.rfc2544.trials_per_search": (
            _ratio(sum("loss" in o for o in outs), searches), "trials"),
    }


def trace(args, workload) -> dict:
    untraced = workloads.Driver()
    tracer = layers.LayerTrace()
    traced = layers.TracedDriver(tracer)
    batch = BatchStats()
    wall = {"untraced": 0.0, "traced": 0.0}
    packets = attempted = failed = 0
    errors = []
    traced_outputs = []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        outputs = []
        for mode, driver in (("untraced", untraced), ("traced", traced)):
            rec = workloads.Recorder(workload.check, keep_outputs=True,
                                     observe=batch if mode == "traced"
                                     else None)
            if mode == "traced":
                tracer.install()
            t0 = time.perf_counter()
            try:
                workload.run(driver, rec, cycles=1)
            finally:
                wall[mode] += time.perf_counter() - t0
                tracer.uninstall()
            attempted += rec.attempted
            failed += rec.failed
            errors += rec.errors
            outputs.append(rec.outputs)
            if mode == "traced":
                packets += rec.packets
                traced_outputs += rec.outputs
        diff = sum(a != b for a, b in zip(*outputs))
        diff += abs(len(outputs[0]) - len(outputs[1]))
        if diff:
            failed += diff
            errors.append(f"{diff} op outputs differ traced vs untraced")
        rounds += 1

    # MoonGenEnv(batch=True): the tier's own accounting, traced and not.
    if hasattr(workload, "batch_check"):
        _, out_u, env_u = workload.batch_check(untraced)
        tracer_b = layers.LayerTrace()
        tracer_b.install()
        try:
            _, out_t, env_t = workload.batch_check(
                layers.TracedDriver(tracer_b))
        finally:
            tracer_b.uninstall()
        attempted += 2
        if out_u != out_t or env_u.batch.stats() != env_t.batch.stats():
            failed += 1
            errors.append(f"batch=True differs traced vs untraced: "
                          f"{env_u.batch.stats()} vs {env_t.batch.stats()}")

    covered = sum(tracer.self_s[layer] for layer in layers.LAYERS)
    coverage = covered / wall["traced"]
    if not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
        failed += 1
        errors.append(f"trace.coverage {coverage:.4f} outside "
                      f"{COVERAGE_RANGE}")
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_ns_per_pkt"] = (
            tracer.self_s[layer] * 1e9 / packets, "ns/pkt")
        metrics[f"{layer}.calls_per_pkt"] = (
            tracer.calls[layer] / packets, "calls/pkt")
    metrics.update(extras(traced_outputs, batch, packets,
                          tracer.calls["analysis.rfc2544"]))
    metrics["trace.coverage"] = (coverage, "frac")
    metrics["trace.overhead"] = (wall["traced"] / wall["untraced"], "x")
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() when the parent started us")
    args = parser.parse_args(argv)
    workload = setup(args)
    setup_s = time.time() - args.t0
    # Long-lived objects (modules, pins) leave the collector's view, so the
    # collection that ends each op scans only what ops allocate.
    gc.freeze()
    if args.role == "setup":
        result = {"setup_s": setup_s}
    elif args.role == "measure":
        result = measure(args, workload, setup_s)
    else:
        result = trace(args, workload)
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
