"""The CRC-gap planner and the fastpath forwarder against reference loops.

``GapFiller.plan`` and ``simulate_forwarder`` run tight scalar loops over
Python floats.  The references below are the straightforward per-packet
loops they replaced: one method call per arrival on the interrupt
moderator, numpy scalars throughout, a fresh filler list per gap.  Every
output must match them bit for bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.analysis.precision import cbr_filler_schedule
from repro.core.ratecontrol import GapFiller
from repro.dut.fastpath import simulate_forwarder
from repro.dut.interrupts import InterruptModerator, ItrConfig
from repro.errors import GapError


# -- reference loops ---------------------------------------------------------

def reference_split(filler, idle_bytes):
    if idle_bytes == 0:
        return []
    fillers = []
    remaining = idle_bytes
    while remaining > filler.max_filler_wire:
        take = min(filler.max_filler_wire,
                   remaining - filler.min_filler_wire)
        fillers.append(take)
        remaining -= take
    fillers.append(remaining)
    return fillers


def reference_plan(filler, desired_gaps_ns):
    """Per-gap filler lists and realised gaps, one numpy scalar at a time."""
    desired = np.asarray(list(desired_gaps_ns), dtype=float)
    pkt_wire = filler.pkt_wire_bytes
    min_gap_ns = pkt_wire * filler.byte_time_ns
    if float(desired.mean()) < min_gap_ns - 1e-9:
        raise GapError("rate exceeds line rate")
    fillers = []
    actual = np.empty(desired.size)
    carry = 0.0
    min_fill = filler.min_filler_wire
    for i, gap_ns in enumerate(desired):
        idle_bytes_f = (gap_ns - min_gap_ns) / filler.byte_time_ns + carry
        if idle_bytes_f < min_fill:
            idle_bytes = 0 if idle_bytes_f < min_fill / 2 else min_fill
        else:
            idle_bytes = int(round(idle_bytes_f))
        carry = idle_bytes_f - idle_bytes
        fillers.append(reference_split(filler, idle_bytes))
        actual[i] = (pkt_wire + idle_bytes) * filler.byte_time_ns
    return fillers, actual


def reference_forwarder(arrivals_ns, pkt_size, service_ns, ring_size, itr,
                        pipeline_ns):
    """One ``observe_arrival``/``account`` call per packet on the moderator."""
    arrivals = np.asarray(arrivals_ns, dtype=float)
    moderator = InterruptModerator(itr)
    overhead = moderator.config.interrupt_overhead_ns
    n = arrivals.size
    departures = np.full(n, np.nan)
    cpu_free = float("-inf")
    dropped = accepted = dep_ptr = 0
    done_times = []
    for i in range(n):
        a = arrivals[i]
        moderator.observe_arrival(a)
        while dep_ptr < len(done_times) and done_times[dep_ptr] <= a:
            dep_ptr += 1
        if accepted - dep_ptr >= ring_size:
            dropped += 1
            continue
        if cpu_free <= a:
            wake = max(a, moderator.next_allowed_ns())
            moderator.fire(wake)
            start = wake + overhead
        else:
            start = cpu_free
        dep = start + service_ns
        cpu_free = dep
        moderator.account(1, pkt_size)
        departures[i] = dep + pipeline_ns
        done_times.append(dep)
        accepted += 1
    return departures, departures - arrivals, dropped, moderator


def moderator_state(m):
    return (m.latency_class, m.interrupts, float(m.last_interrupt_ns),
            m._period_bytes, m._period_packets, m._clump_len, m._max_clump,
            float(m._last_arrival_ns), list(m.class_history))


# -- strategies --------------------------------------------------------------

fillers = st.builds(
    GapFiller,
    frame_size=st.sampled_from([64, 128, 512, 1518]),
    speed_bps=st.sampled_from([units.SPEED_1G, units.SPEED_10G]),
    min_filler_wire=st.sampled_from([33, 76, 100]),
    max_filler_wire=st.sampled_from([200, 1538]),
)


@st.composite
def planner_cases(draw):
    """A filler and a gap array with a mean at or above line rate.

    Gaps are below the frame's wire time (unrepresentable or
    back-to-back), a few wire times (one filler), hundreds (split
    fillers), or a whole number of bytes plus a half (a rounding tie).
    Half the cases pair every short gap with its mirror around the wire
    time, so the mean sits exactly at line rate.
    """
    filler = draw(fillers)
    byte_ns = filler.byte_time_ns
    wire_ns = filler.pkt_wire_bytes * byte_ns
    gap = st.one_of(
        st.floats(0.0, wire_ns), st.floats(wire_ns, 4 * wire_ns),
        st.floats(4 * wire_ns, 400 * wire_ns),
        st.integers(0, 3_000).map(lambda k: wire_ns + (k + 0.5) * byte_ns))
    gaps = draw(st.lists(gap, min_size=1, max_size=60))
    if draw(st.booleans()):  # mean exactly at line rate
        gaps = [g for x in gaps if x <= 2 * wire_ns
                for g in (x, 2 * wire_ns - x)] or [wire_ns]
    if np.mean(gaps) < wire_ns:
        gaps.append((len(gaps) + 1) * wire_ns)  # lift the mean to line rate
    return filler, gaps


itr_configs = st.builds(
    ItrConfig,
    lowest_rate_hz=st.sampled_from([150_000.0, 1e6]),
    low_rate_hz=st.sampled_from([20_000.0, 200_000.0]),
    bulk_rate_hz=st.sampled_from([8_000.0, 100_000.0]),
    clump_window_ns=st.sampled_from([0.0, 200.0, 1_000.0]),
    clump_degrade=st.integers(1, 4),
    clump_recover=st.integers(0, 2),
    bytes_degrade=st.sampled_from([0, 500, 24_000]),
    bytes_recover=st.sampled_from([0, 200, 12_000]),
    interrupt_overhead_ns=st.sampled_from([0.0, 2_000.0]),
)


@st.composite
def arrival_arrays(draw):
    """Sorted arrivals mixing back-to-back clumps, overload and idle."""
    gaps = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 300.0),
                  st.floats(300.0, 3_000.0), st.floats(3e3, 2e5)),
        min_size=1, max_size=300))
    start = draw(st.floats(-1e6, 1e6))
    return start + np.cumsum(gaps)


# -- planner -----------------------------------------------------------------

class TestPlannerMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(planner_cases())
    def test_plan_bit_identical(self, case):
        filler, gaps = case
        want_fillers, want_actual = reference_plan(filler, gaps)
        plan = filler.plan(np.array(gaps))
        assert plan.filler_wire_bytes == want_fillers
        assert plan.actual_gaps_ns.tobytes() == want_actual.tobytes()
        assert plan.desired_gaps_ns.tobytes() == np.array(gaps).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(fillers, st.floats(0.0, 3.0), st.integers(1, 20))
    def test_below_line_rate_rejected_like_reference(self, filler, frac, n):
        gaps = [frac * filler.pkt_wire_bytes * filler.byte_time_ns] * n
        try:
            want_fillers, _ = reference_plan(filler, gaps)
        except GapError:
            with pytest.raises(GapError):
                filler.plan(gaps)
        else:
            assert filler.plan(gaps).filler_wire_bytes == want_fillers

    def test_iterable_and_list_inputs_match_array(self):
        filler = GapFiller()
        gaps = [50.0, 90.0, 2_000.0, 70.0, 20_000.0]
        want = filler.plan(np.array(gaps))
        for got in (filler.plan(gaps), filler.plan(iter(gaps))):
            assert got.filler_wire_bytes == want.filler_wire_bytes
            assert got.actual_gaps_ns.tobytes() == want.actual_gaps_ns.tobytes()

    def test_filler_lists_not_aliased(self):
        plan = GapFiller().plan([1_000.0] * 4 + [67.2] * 3)
        lists = plan.filler_wire_bytes
        before = [list(f) for f in lists]
        lists[0].append(-1)
        lists[4].append(-2)
        assert [list(f) for f in lists[1:4]] == before[1:4]
        assert [list(f) for f in lists[5:]] == before[5:]

    @settings(max_examples=60, deadline=None)
    @given(fillers, st.floats(1.0, 200.0))
    def test_cbr_schedule_matches_plan(self, filler, factor):
        gap_ns = factor * filler.pkt_wire_bytes * filler.byte_time_ns
        plan = filler.plan(np.full(200, gap_ns))
        schedule = cbr_filler_schedule(filler, gap_ns)
        assert list(itertools.islice(schedule, 200)) == plan.filler_wire_bytes


# -- forwarder ---------------------------------------------------------------

class TestForwarderMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(arrival_arrays(), st.sampled_from([1, 2, 8, 64, 4096]),
           itr_configs, st.sampled_from([64, 1518]),
           st.sampled_from([100.0, 526.0, 5_000.0]),
           st.sampled_from([0.0, 15_000.0]))
    def test_forwarder_bit_identical(self, arrivals, ring, itr, pkt_size,
                                     service_ns, pipeline_ns):
        want_dep, want_lat, want_dropped, want_mod = reference_forwarder(
            arrivals, pkt_size, service_ns, ring, itr, pipeline_ns)
        got = simulate_forwarder(arrivals, pkt_size=pkt_size,
                                 service_ns=service_ns, ring_size=ring,
                                 itr=itr, pipeline_ns=pipeline_ns)
        assert got.departures_ns.tobytes() == want_dep.tobytes()
        assert got.latencies_ns.tobytes() == want_lat.tobytes()
        assert got.dropped == want_dropped
        assert got.interrupts == want_mod.interrupts
        assert moderator_state(got.moderator) == moderator_state(want_mod)
