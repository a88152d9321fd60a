"""Per-layer host-time accounting for the traced run: the simulator's own
"Table 1".

Nothing under ``src/`` changes.  Two mechanisms feed one table:

* **Dispatched events** run under :class:`repro.metrics.profiler.
  LoopProfiler`, which times every callback while leaving it intact
  (``repro.batch.detector`` classifies pending events by callback
  identity, so wrapping scheduled callbacks would batch differently).
  Each callback's owner (``NicPort`` -> ``nicsim.nic``, ``Wire`` ->
  ``nicsim.link``, ``Process`` -> ``core.tasks``, ``OvsForwarder`` ->
  ``dut.forwarder``) names its layer; ``nicsim.eventloop`` keeps what
  remains of the loop's time once the callbacks are taken out.
* **Synchronous entry points** (:data:`ENTRY_POINTS`) are replaced, for the
  traced run only, by span wrappers at class or module level.

A layer's self time is its spans' and callbacks' time minus the time of
the spans nested inside them.  ``calls`` counts wrapped calls plus
dispatched events.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Dict, List, Optional, Tuple

from repro.metrics.profiler import LoopProfiler, categorize
from repro.nicsim.eventloop import EventLoop, _callback_name

LAYERS = (
    "nicsim.eventloop", "nicsim.nic", "nicsim.link", "nicsim.cpu",
    "core.tasks", "core.memory", "core.timestamping", "dut.forwarder",
    "batch", "generators", "dut.fastpath", "analysis.rfc2544",
)

#: Pseudo-layer of dispatched callbacks no layer owns (reported only as
#: the shortfall of ``trace.coverage``).
UNOWNED = "unowned"
#: LoopProfiler callback category -> layer.
EVENT_LAYERS = {
    "nic": "nicsim.nic",
    "wire": "nicsim.link",
    "process": "core.tasks",
    "dut": "dut.forwarder",
    "timestamp": "core.timestamping",
}

#: (module, owner or None for a module function, attribute, layer, kind).
#: ``gen`` wraps a generator function: each resume is one span.
ENTRY_POINTS = (
    ("repro.nicsim.nic", "TxQueueSim", "enqueue", "nicsim.nic", "call"),
    ("repro.nicsim.nic", "RxQueueSim", "fetch", "nicsim.nic", "call"),
    ("repro.nicsim.link", "Wire", "transmit", "nicsim.link", "call"),
    ("repro.nicsim.cpu", "CpuCore", "charge", "nicsim.cpu", "call"),
    ("repro.core.tasks", None, "materialize_frames", "core.tasks", "call"),
    # Building (and filling) a mempool is part of every op's userscript.
    ("repro.core.memory", "MemPool", "__init__", "core.memory", "call"),
    ("repro.core.memory", "BufArray", "alloc", "core.memory", "call"),
    ("repro.core.memory", "BufArray", "charge_modify", "core.memory", "call"),
    ("repro.core.memory", "BufArray", "charge_random_fields", "core.memory",
     "call"),
    ("repro.core.memory", "BufArray", "charge_counter_fields", "core.memory",
     "call"),
    ("repro.core.memory", "BufArray", "offload_ip_checksums", "core.memory",
     "call"),
    ("repro.core.memory", "BufArray", "offload_udp_checksums", "core.memory",
     "call"),
    ("repro.core.memory", "BufArray", "offload_tcp_checksums", "core.memory",
     "call"),
    ("repro.core.timestamping", "Timestamper", "probe_task",
     "core.timestamping", "gen"),
    ("repro.dut.forwarder", "OvsForwarder", "ingress", "dut.forwarder",
     "call"),
    ("repro.batch", "BatchTier", "execute", "batch", "call"),
    ("repro.generators.base", "DepartureModel", "departures_ns",
     "generators", "call"),
    # The name the RFC 2544 probe calls, and the defining module's.
    ("repro.analysis.rfc2544", None, "simulate_forwarder", "dut.fastpath",
     "call"),
    ("repro.dut.fastpath", None, "simulate_forwarder", "dut.fastpath",
     "call"),
    ("repro.analysis.rfc2544", None, "throughput_test", "analysis.rfc2544",
     "call"),
)


class LayerTrace:
    """Spans at layer boundaries, accumulated in memory per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS + (UNOWNED,),
                                                      0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS + (UNOWNED,), 0)
        self._stack: List[float] = []  # child time of each open span
        self._event_layer: Optional[str] = None
        self._layer_of: Dict[str, str] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _close(self, layer: str, elapsed: float) -> None:
        child = self._stack.pop()
        self.self_s[layer] += elapsed - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1] += elapsed
        elif self._event_layer is not None:
            # A top-level span inside a dispatched callback: not that
            # callback's own time.
            self.self_s[self._event_layer] -= elapsed

    def _span(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer, clock() - t0)

        return traced

    def _span_gen(self, layer: str, genfn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(genfn)
        def traced(*args, **kwargs):
            gen = genfn(*args, **kwargs)
            value = None
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    op = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._close(layer, clock() - t0)
                try:
                    value = yield op
                except GeneratorExit:
                    gen.close()
                    raise

        return traced

    def install(self) -> None:
        """Wrap every entry point (class/module attributes)."""
        for module, owner, attr, layer, kind in ENTRY_POINTS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            orig = target.__dict__[attr]
            wrap = self._span_gen if kind == "gen" else self._span
            self._patches.append((target, attr, orig))
            setattr(target, attr, wrap(layer, orig))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, orig = self._patches.pop()
            setattr(target, attr, orig)

    # -- dispatched events ----------------------------------------------

    def _layer_for(self, callback) -> str:
        name = _callback_name(callback)
        layer = self._layer_of.get(name)
        if layer is None:
            layer = self._layer_of[name] = EVENT_LAYERS.get(
                categorize(name), UNOWNED)
        return layer

    def run_loop(self, loop: EventLoop, until_ps: Optional[int]) -> None:
        """``loop.run(until_ps=...)`` under the profiler, same events.

        LoopProfiler drives ``loop._next_event``; an instance attribute
        bounds it by the horizon, as ``run`` does, and notes the layer of
        each event it hands out.  ``_until_ps`` is set as ``run`` sets it,
        so batch trains see the same bound.
        """
        pop = loop._next_event

        def next_event():
            due = loop.next_event_time_ps()
            if due is None or (until_ps is not None and due > until_ps):
                self._event_layer = None
                return None
            event = pop()
            self._event_layer = self._layer_for(event.callback)
            return event

        prev_until = loop._until_ps
        loop._until_ps = until_ps
        loop._next_event = next_event
        try:
            report = LoopProfiler(loop).run()
        finally:
            del loop._next_event
            loop._until_ps = prev_until
            self._event_layer = None
        if until_ps is not None and until_ps > loop.now_ps:
            loop.now_ps = until_ps
        callbacks_s = 0.0
        for name, stats in report.callbacks.items():
            callbacks_s += stats.wall_s
            layer = self._layer_of[name]
            self.self_s[layer] += stats.wall_s
            self.calls[layer] += stats.events
        self.self_s["nicsim.eventloop"] += report.total_wall_s - callbacks_s
        self.calls["nicsim.eventloop"] += report.events


class TracedDriver:
    """The workloads' driver with every horizon run by :class:`LayerTrace`.

    Mirrors ``MoonGenEnv.run_for`` and ``MoonGenEnv.wait_for_slaves``.
    """

    def __init__(self, trace: LayerTrace) -> None:
        self.trace = trace

    def run_for(self, env, duration_ns: float) -> None:
        loop = env.loop
        self.trace.run_loop(loop, loop.now_ps + round(duration_ns * 1000))

    def wait_for_slaves(self, env, duration_ns: float) -> None:
        env.stop_after(duration_ns)
        self.trace.run_loop(env.loop, None)
        for task in env.tasks:
            if not task.finished:
                task.kill()
        for task in env.tasks:
            task.check()
