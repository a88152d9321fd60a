"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import layers  # noqa: E402
import make_pins  # noqa: E402
import probe  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = 3  # ops per tiny run


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def tiny_run(name: str, seed: int = W.DEFAULT_SEED, pins=None,
             driver=None, ops: int = TINY) -> W.Recorder:
    workload = W.make(name, seed, pins)
    rec = W.Recorder(workload.check, max_ops=ops, keep_outputs=True)
    return workload.run(driver or W.Driver(), rec)


def test_metric_names():
    spec = bench_spec()
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(W.WORKLOADS)


def test_traced_metrics_are_the_declared_ones():
    declared = {m["name"] for m in bench_spec()["per_layer"]}
    layer_metrics = {f"{layer}.{kind}" for layer in layers.LAYERS
                     for kind in ("self_ns_per_pkt", "calls_per_pkt")}
    assert layer_metrics <= declared


def test_pins_reproduce_paper_anchors():
    assert make_pins.check_anchors(W.load_pins()) == []


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_tiny_run_matches_pins(name):
    rec = tiny_run(name)
    assert rec.attempted == TINY
    assert rec.failed == 0, rec.errors
    assert rec.packets > 0


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_other_seed_passes_invariants(name):
    rec = tiny_run(name, seed=W.DEFAULT_SEED + 1000)
    assert rec.failed == 0, rec.errors


def test_probe_runs_after_every_op():
    rec = W.Recorder(lambda key, out: None, probe=lambda: 0.02)
    for _ in range(3):
        rec.op("k", lambda: (1, {}, None))
    assert rec.probe_times == [0.02] * 3
    assert probe.probe() > 0


def test_normalize_cancels_host_speed():
    nominal = probe.NOMINAL_S
    # A host twice as slow doubles ops and probes alike.
    assert probe.normalize([0.4, 0.4], [2 * nominal] * 2) == \
        pytest.approx([0.2, 0.2])
    # A program twice as slow on the same host stays twice as slow.
    assert probe.normalize([0.4, 0.8], [nominal] * 2) == \
        pytest.approx([0.4, 0.8])
    # One disturbed probe does not move its neighbours' scale.
    probes = [nominal] * 9
    probes[4] = 5 * nominal
    assert probe.normalize([0.1] * 9, probes) == pytest.approx([0.1] * 9)


def _perturb(name: str, pins: dict) -> dict:
    pins = copy.deepcopy(pins[name])
    workload = W.WORKLOADS[name](W.DEFAULT_SEED)
    if name == "tx_linerate":
        freq, script = workload.cycle()[1]
        pins[workload.key(W.DEFAULT_SEED, freq, script)]["tx"] += 1
    elif name == "dut_latency":
        pins[workload.key(W.DEFAULT_SEED, workload.cycle()[1])][
            "latency_q_ns"][1] *= 1.01
    else:
        pins["trials"][workload.key(W.DEFAULT_SEED, 64, 1)]["loss"] += 1e-3
    return pins


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_perturbed_pin_fails_one_op(name):
    rec = tiny_run(name, pins=_perturb(name, W.load_pins()))
    assert rec.attempted == TINY
    assert rec.failed == 1
    assert rec.errors[0].startswith(f"{W.DEFAULT_SEED}/")


def test_raising_op_is_a_failure_not_a_crash():
    rec = W.Recorder(lambda key, out: None)

    def boom():
        raise RuntimeError("boom")

    assert rec.op("k", boom) is None
    assert (rec.attempted, rec.failed) == (1, 1)


@pytest.mark.parametrize("name", ["tx_linerate", "dut_latency"])
def test_tracing_changes_no_output(name):
    plain = tiny_run(name, ops=2)
    trace = layers.LayerTrace()
    trace.install()
    try:
        traced = tiny_run(name, ops=2, driver=layers.TracedDriver(trace))
    finally:
        trace.uninstall()
    assert traced.outputs == plain.outputs
    assert trace.calls["nicsim.eventloop"] > 0
    assert trace.self_s["nicsim.nic"] > 0


def test_tracing_keeps_batch_tier_accounting():
    workload = W.make("tx_linerate", W.DEFAULT_SEED)
    _, out_plain, env_plain = workload.batch_check(W.Driver())
    trace = layers.LayerTrace()
    trace.install()
    try:
        _, out_traced, env_traced = workload.batch_check(
            layers.TracedDriver(trace))
    finally:
        trace.uninstall()
    assert out_traced == out_plain
    assert env_traced.batch.stats() == env_plain.batch.stats()
    assert env_plain.batch.stats()["frames"] > 0
    assert trace.calls["batch"] > 0
