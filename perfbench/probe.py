"""A fixed reference workload that measures how fast the host runs now.

The benchmark's host is a small VM on a shared machine.  Its speed drifts
by up to 2x over minutes as the neighbours' load changes, so two runs of
the same code minutes apart disagree by far more than any change worth
measuring.  :func:`probe` does a fixed amount of work of the kinds the
simulator does (a heap of timed events with callbacks, generator resumes,
slotted objects carrying bytearray frames, dict counters, a little numpy)
and returns its host seconds.  It imports nothing from ``repro``, so a
change to the program cannot change it.

The measuring process runs one probe after each op, outside the op's
timing.  :func:`normalize` divides each op's host seconds by the median of
the probes around it and multiplies by :data:`NOMINAL_S`: the op's time on
a host that runs the probe in exactly :data:`NOMINAL_S` seconds.  A change
that makes ops slower makes normalized times slower by the same share; a
host that slows everything down slows ops and probes alike, and cancels.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

import numpy

#: The probe's seconds on the reference host that normalized times use.
NOMINAL_S = 0.01
#: Probes on each side of an op whose median normalizes it.
HALF_WINDOW = 2

_EVENTS = 3000
_BUFFERS = 1200
_ARRAY = numpy.arange(20_000, dtype=numpy.int64)


class _Frame:
    __slots__ = ("data", "length", "seq")

    def __init__(self, seq: int) -> None:
        self.data = bytearray(2048)
        self.length = 60
        self.seq = seq


class _Port:
    """Receives the heap's events, as a NIC model receives frames."""

    def __init__(self) -> None:
        self.counters = {"rx": 0, "bytes": 0}
        self.last = 0

    def receive(self, frame: _Frame) -> None:
        frame.data[12:14] = b"\x08\x00"
        self.counters["rx"] += 1
        self.counters["bytes"] += frame.length
        self.last = frame.seq


def _task(n: int):
    total = 0
    for i in range(n):
        total += yield i * 3
    return total


def _work() -> int:
    frames = [_Frame(i) for i in range(_BUFFERS)]
    for frame in frames:
        frame.data[0:6] = b"\x02\x00\x00\x00\x00\x01"
    port = _Port()
    heap: List[tuple] = []
    for i in range(_EVENTS):
        heapq.heappush(heap, ((i * 7919) % 10007, i, port.receive,
                              frames[i % _BUFFERS]))
    while heap:
        _, _, callback, frame = heapq.heappop(heap)
        callback(frame)
    task = _task(_EVENTS)
    value = next(task)
    try:
        while True:
            value = task.send(value & 0xFF)
    except StopIteration as stop:
        total = stop.value
    gaps = numpy.diff(numpy.cumsum(_ARRAY * 3) % 1_000_003)
    order = numpy.searchsorted(numpy.sort(gaps), gaps[::7])
    return port.counters["rx"] + total + int(order[-1])


def probe() -> float:
    """Run the reference work once and return its host seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def normalize(times_s: List[float], probes_s: List[float]) -> List[float]:
    """Each op's host seconds on the reference host.

    ``probes_s[i]`` is the probe that ran right after op ``i``; op ``i``
    is scaled by the median of probes ``i - HALF_WINDOW`` to
    ``i + HALF_WINDOW``, so the host's speed is taken from the seconds
    around the op, and one disturbed probe moves nothing.
    """
    assert len(times_s) == len(probes_s)
    n = len(times_s)
    out = []
    for i, t in enumerate(times_s):
        near = probes_s[max(0, i - HALF_WINDOW):min(n, i + HALF_WINDOW + 1)]
        out.append(t * NOMINAL_S / statistics.median(near))
    return out
