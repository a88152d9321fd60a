"""Tests for the DuT models: ITR, fastpath forwarder, event forwarder, switch."""

import numpy as np
import pytest

from repro import MoonGenEnv, units
from repro.dut import (
    DutConfig,
    InterruptModerator,
    ItrConfig,
    OvsForwarder,
    StoreAndForwardSwitch,
    simulate_forwarder,
)
from repro.dut.interrupts import BULK_LATENCY, LOW_LATENCY, LOWEST_LATENCY
from repro.nicsim.nic import SimFrame


def cbr_arrivals(pps, n, start=0.0):
    return start + np.arange(n) * (1e9 / pps)


class TestInterruptModerator:
    def test_intervals_by_class(self):
        cfg = ItrConfig()
        m = InterruptModerator(cfg)
        assert cfg.interval_ns(LOWEST_LATENCY) < cfg.interval_ns(LOW_LATENCY)
        assert cfg.interval_ns(LOW_LATENCY) < cfg.interval_ns(BULK_LATENCY)

    def test_moderation_caps_rate(self):
        m = InterruptModerator(ItrConfig(lowest_rate_hz=100_000))
        m.fire(0.0)
        assert m.next_allowed_ns() == pytest.approx(10_000.0)

    def test_clump_degrades_class(self):
        m = InterruptModerator(ItrConfig())
        for t in (0.0, 67.2, 134.4):  # back-to-back at 10 GbE
            m.observe_arrival(t)
        m.fire(200.0)
        assert m.latency_class == LOW_LATENCY
        for t in (1000.0, 1067.2, 1134.4):
            m.observe_arrival(t)
        m.fire(1200.0)
        assert m.latency_class == BULK_LATENCY

    def test_sparse_traffic_recovers(self):
        m = InterruptModerator(ItrConfig())
        m.latency_class = BULK_LATENCY
        m.observe_arrival(0.0)
        m.fire(100.0)
        assert m.latency_class == LOW_LATENCY
        m.observe_arrival(10_000.0)
        m.fire(10_100.0)
        assert m.latency_class == LOWEST_LATENCY

    def test_bytes_degrade_without_clumps(self):
        m = InterruptModerator(ItrConfig())
        m.observe_arrival(0.0)
        m.account(20, 30_000)  # large transfer
        m.fire(100.0)
        assert m.latency_class == LOW_LATENCY

    def test_class_moves_one_step_per_interrupt(self):
        m = InterruptModerator(ItrConfig())
        for t in range(6):
            m.observe_arrival(t * 10.0)  # extreme clumping
        m.fire(100.0)
        assert m.latency_class == LOW_LATENCY  # not straight to bulk

    def test_rate_hz(self):
        m = InterruptModerator(ItrConfig())
        m.fire(0.0)
        m.fire(1000.0)
        assert m.rate_hz(1e9) == pytest.approx(2.0)
        assert m.rate_hz(0.0) == 0.0


class TestFastpath:
    def test_light_load_latency_is_pipeline_plus_service(self):
        res = simulate_forwarder(cbr_arrivals(10e3, 100), pipeline_ns=15_000)
        lat = res.latencies_ns[~np.isnan(res.latencies_ns)]
        assert lat.min() >= 15_000
        assert np.median(lat) < 20_000

    def test_capacity_about_1_9_mpps(self):
        """Section 8.3: the DuT overloads at about 1.9 Mpps."""
        under = simulate_forwarder(cbr_arrivals(1.8e6, 100_000))
        over = simulate_forwarder(cbr_arrivals(2.1e6, 100_000))
        assert under.drop_rate == 0.0
        assert over.dropped > 0

    def test_overload_latency_near_2ms(self):
        """All buffers full: ~2 ms latency (Section 8.3)."""
        res = simulate_forwarder(cbr_arrivals(2.5e6, 200_000))
        lat = res.latencies_ns[~np.isnan(res.latencies_ns)]
        tail = np.median(lat[len(lat) // 2:])
        assert tail == pytest.approx(2.2e6, rel=0.15)

    def test_drops_do_not_consume_service(self):
        res = simulate_forwarder(cbr_arrivals(3e6, 100_000))
        deps = res.departures_ns[~np.isnan(res.departures_ns)]
        forwarded_rate = (len(deps) - 1) / ((deps[-1] - deps[0]) / 1e9)
        assert forwarded_rate == pytest.approx(1.9e6, rel=0.03)

    def test_interrupt_rate_caps_at_lowest_class(self):
        res = simulate_forwarder(cbr_arrivals(1.0e6, 50_000))
        assert res.interrupt_rate_hz == pytest.approx(150e3, rel=0.05)

    def test_interrupt_rate_tracks_low_load(self):
        res = simulate_forwarder(cbr_arrivals(50e3, 20_000))
        assert res.interrupt_rate_hz == pytest.approx(50e3, rel=0.05)

    def test_bursty_load_reduces_interrupts(self):
        """Figure 7: micro-bursts collapse the interrupt rate."""
        from repro.generators import ZsendModel
        z = ZsendModel(speed_bps=units.SPEED_10G)
        bursty = simulate_forwarder(z.departures_ns(0.5e6, 25_000, seed=1))
        cbr = simulate_forwarder(cbr_arrivals(0.5e6, 25_000))
        assert bursty.interrupt_rate_hz < cbr.interrupt_rate_hz / 4

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            simulate_forwarder(np.array([10.0, 5.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            simulate_forwarder(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            simulate_forwarder(np.array([0.0, bad, 5.0]))

    def test_percentiles(self):
        res = simulate_forwarder(cbr_arrivals(1e6, 10_000))
        q1, med, q3 = res.latency_percentiles()
        assert q1 <= med <= q3

    def test_result_counts(self):
        res = simulate_forwarder(cbr_arrivals(1e6, 1000))
        assert res.forwarded + res.dropped == 1000


class TestOvsForwarder:
    def run_forwarder(self, frames_with_times, config=None):
        env = MoonGenEnv()
        dut = OvsForwarder(env.loop, config)
        out = []
        from repro.nicsim.link import Wire
        wire = Wire(env.loop, units.SPEED_10G)
        wire.connect(lambda f, t: out.append((f, t)))
        dut.connect_output(wire)
        for frame, t in frames_with_times:
            env.loop.schedule_at(round(t * 1000), lambda f=frame: dut.ingress(
                f, env.loop.now_ps))
        env.loop.run()
        return dut, out

    def frame(self, fcs_ok=True):
        return SimFrame(b"\x00" * 60, fcs_ok=fcs_ok)

    def test_forwards_valid(self):
        dut, out = self.run_forwarder([(self.frame(), i * 10_000.0)
                                       for i in range(5)])
        assert dut.forwarded == 5
        assert len(out) == 5

    def test_drops_bad_crc_in_hardware(self):
        """Section 8.2: invalid packets cause no system activity."""
        frames = [(self.frame(fcs_ok=False), i * 1000.0) for i in range(50)]
        dut, out = self.run_forwarder(frames)
        assert dut.rx_crc_errors == 50
        assert dut.forwarded == 0
        assert dut.interrupts == 0  # no software ever woke up

    def test_ring_overflow(self):
        config = DutConfig(ring_size=4)
        frames = [(self.frame(), i * 0.1) for i in range(100)]
        dut, out = self.run_forwarder(frames, config)
        assert dut.rx_dropped > 0
        assert dut.forwarded + dut.rx_dropped == 100

    def test_latency_includes_pipeline(self):
        config = DutConfig(pipeline_ns=10_000)
        dut, out = self.run_forwarder([(self.frame(), 0.0)], config)
        frame, t = out[0]
        latency_ns = frame.meta["dut_departure_ps"] / 1000 - 0.0
        assert latency_ns >= 10_000

    def test_interrupt_rate_helper(self):
        frames = [(self.frame(), i * 100_000.0) for i in range(20)]
        dut, out = self.run_forwarder(frames)
        assert dut.interrupt_rate_hz() > 0

    def test_matches_fastpath_forwarding(self):
        """Event-driven and fastpath forwarders agree on throughput."""
        arrivals = cbr_arrivals(1.0e6, 2000)
        fast = simulate_forwarder(arrivals)
        frames = [(self.frame(), t) for t in arrivals]
        dut, out = self.run_forwarder(frames)
        assert dut.forwarded == fast.forwarded


class TestSwitch:
    def test_drops_invalid_forwards_valid(self):
        env = MoonGenEnv()
        switch = StoreAndForwardSwitch(env.loop)
        out = []
        from repro.nicsim.link import Wire
        wire = Wire(env.loop, units.SPEED_10G)
        wire.connect(lambda f, t: out.append(f))
        switch.connect_output(wire)
        switch.ingress(SimFrame(b"\x00" * 60, fcs_ok=False), 0)
        switch.ingress(SimFrame(b"\x00" * 60, fcs_ok=True), 0)
        env.loop.run()
        assert switch.rx_crc_errors == 1
        assert switch.tx_packets == 1
        assert len(out) == 1

    def test_forwarding_latency(self):
        env = MoonGenEnv()
        switch = StoreAndForwardSwitch(env.loop, forwarding_latency_ns=800.0)
        times = []
        from repro.nicsim.link import Wire
        wire = Wire(env.loop, units.SPEED_10G)
        wire.connect(lambda f, t: times.append(t))
        switch.connect_output(wire)
        switch.ingress(SimFrame(b"\x00" * 60), 0)
        env.loop.run()
        assert times[0] >= 800_000  # 800 ns + serialization

    def test_queue_limit(self):
        env = MoonGenEnv()
        switch = StoreAndForwardSwitch(env.loop, queue_bytes=128)
        for _ in range(5):
            switch.ingress(SimFrame(b"\x00" * 60), 0)
        assert switch.dropped == 3  # two 64 B frames fit

    def test_multiplexes_streams(self):
        """Section 8.4: several generator streams merge onto one output."""
        env = MoonGenEnv()
        switch = StoreAndForwardSwitch(env.loop)
        out = []
        from repro.nicsim.link import Wire
        wire = Wire(env.loop, units.SPEED_10G)
        wire.connect(lambda f, t: out.append(t))
        switch.connect_output(wire)
        for t in (0, 100, 200):
            env.loop.schedule_at(t * 1000, lambda: switch.ingress(
                SimFrame(b"\x00" * 60), env.loop.now_ps))
        env.loop.run()
        assert len(out) == 3
        # Output serialization is back-to-back or better spaced.
        gaps = np.diff(out)
        assert np.all(gaps >= units.frame_time_ps(64, units.SPEED_10G) - 1)
