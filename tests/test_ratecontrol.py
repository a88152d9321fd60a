"""Tests for traffic patterns and the CRC-gap rate control (Section 8)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import MoonGenEnv, units
from repro.core.ratecontrol import (
    CbrPattern,
    CustomGapPattern,
    DEFAULT_MIN_FILLER_WIRE,
    GapFiller,
    HARD_MIN_WIRE,
    MAX_FILLER_WIRE,
    PoissonPattern,
    SHORT_FRAME_MAX_PPS,
    TrafficPattern,
    UniformBurstPattern,
    crc_rate_control_frame_rate,
    effective_pps,
)
from repro.errors import ConfigurationError, GapError


class TestPatterns:
    def test_cbr_constant(self):
        gaps = CbrPattern(1e6).gaps_ns(100)
        assert np.all(gaps == 1000.0)

    def test_cbr_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            CbrPattern(0)

    def test_poisson_mean(self):
        gaps = PoissonPattern(1e6, seed=1).gaps_ns(200_000)
        assert gaps.mean() == pytest.approx(1000.0, rel=0.01)

    def test_poisson_is_exponential(self):
        gaps = PoissonPattern(1e6, seed=2).gaps_ns(200_000)
        # For an exponential distribution the std equals the mean.
        assert gaps.std() == pytest.approx(gaps.mean(), rel=0.02)

    def test_poisson_reproducible(self):
        a = PoissonPattern(1e6, seed=3).gaps_ns(100)
        b = PoissonPattern(1e6, seed=3).gaps_ns(100)
        assert np.array_equal(a, b)

    def test_burst_pattern_structure(self):
        pattern = UniformBurstPattern(pps=1e6, burst_size=4)
        gaps = pattern.gaps_ns(8)
        wire = units.frame_time_ns(64, units.SPEED_10G)
        assert gaps[0] == gaps[1] == gaps[2] == pytest.approx(wire)
        assert gaps[3] > gaps[0]

    def test_burst_pattern_mean_rate(self):
        pattern = UniformBurstPattern(pps=2e6, burst_size=8)
        gaps = pattern.gaps_ns(8000)
        assert gaps.mean() == pytest.approx(500.0, rel=0.01)

    def test_burst_pattern_rejects_overload(self):
        with pytest.raises(ConfigurationError):
            UniformBurstPattern(pps=20e6, burst_size=4)

    def test_custom_pattern_replays(self):
        pattern = CustomGapPattern([100.0, 200.0, 300.0])
        assert list(pattern.gaps_ns(6)) == [100, 200, 300, 100, 200, 300]
        assert pattern.mean_gap_ns() == pytest.approx(200.0)

    def test_custom_rejects_bad(self):
        with pytest.raises(ConfigurationError):
            CustomGapPattern([])
        with pytest.raises(ConfigurationError):
            CustomGapPattern([-1.0])

    def test_iter_gaps(self):
        it = CbrPattern(1e6).iter_gaps_ns()
        assert [next(it) for _ in range(3)] == [1000.0, 1000.0, 1000.0]


class TestGapFillerConstruction:
    def test_defaults(self):
        filler = GapFiller()
        assert filler.min_filler_wire == DEFAULT_MIN_FILLER_WIRE == 76
        assert filler.byte_time_ns == pytest.approx(0.8)

    def test_hard_minimum_enforced(self):
        # Section 8.1: the NICs refuse wire lengths below 33 bytes.
        with pytest.raises(GapError):
            GapFiller(min_filler_wire=32)
        GapFiller(min_filler_wire=HARD_MIN_WIRE)  # exactly 33 is allowed

    def test_bad_max(self):
        with pytest.raises(GapError):
            GapFiller(min_filler_wire=100, max_filler_wire=99)

    def test_unrepresentable_range(self):
        # Section 8.1: gaps of 0.8-60.8 ns cannot be generated at 10 GbE.
        low, high = GapFiller().unrepresentable_gap_range_ns()
        assert low == pytest.approx(0.8)
        assert high == pytest.approx(60.0)

    def test_short_frame_rate_constant(self):
        assert SHORT_FRAME_MAX_PPS == pytest.approx(15.6e6)


class TestPlan:
    def test_cbr_plan_exact(self):
        filler = GapFiller()
        plan = filler.plan_pattern(CbrPattern(1e6), 1000)
        assert plan.actual_gaps_ns.mean() == pytest.approx(1000.0, rel=1e-6)
        assert plan.max_error_ns() <= 0.8  # byte granularity

    def test_filler_sizes_legal(self):
        filler = GapFiller()
        plan = filler.plan_pattern(PoissonPattern(2e6, seed=5), 5000)
        for fillers in plan.filler_wire_bytes:
            for size in fillers:
                assert filler.min_filler_wire <= size <= filler.max_filler_wire

    def test_long_gaps_split_into_multiple_fillers(self):
        filler = GapFiller()
        plan = filler.plan([100_000.0])  # 100 µs gap
        fillers = plan.filler_wire_bytes[0]
        assert len(fillers) > 1
        assert sum(fillers) == pytest.approx(
            (100_000.0 - 67.2) / 0.8, abs=1.0
        )

    def test_mean_rate_preserved_with_unrepresentable_gaps(self):
        """Skip-and-stretch keeps the average exact (Section 8.4)."""
        filler = GapFiller()
        # 97 ns desired: idle of 29.8 ns, below the 60.8 ns minimum filler.
        plan = filler.plan([97.0] * 10_000)
        assert plan.actual_gaps_ns.mean() == pytest.approx(97.0, rel=1e-3)
        # Individual gaps are imprecise by up to half a minimum filler.
        assert plan.max_error_ns() <= 76 * 0.8

    def test_back_to_back_for_tiny_gaps(self):
        filler = GapFiller()
        plan = filler.plan([68.0, 68.0, 68.0, 68.0])
        wire = 67.2
        assert any(g == pytest.approx(wire) for g in plan.actual_gaps_ns)

    def test_sub_wire_gaps_allowed_in_random_patterns(self):
        filler = GapFiller()
        plan = filler.plan([10.0, 2000.0, 10.0, 2000.0])
        assert plan.actual_gaps_ns.mean() == pytest.approx(1005.0, rel=0.01)

    def test_rejects_rate_above_line(self):
        filler = GapFiller()
        with pytest.raises(GapError):
            filler.plan([50.0] * 100)  # mean 50 ns < 67.2 ns wire time

    def test_rejects_negative(self):
        with pytest.raises(GapError):
            GapFiller().plan([-1.0])

    def test_rejects_empty(self):
        with pytest.raises(GapError):
            GapFiller().plan([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(GapError, match="finite"):
            GapFiller().plan([1000.0, bad, 1000.0])

    def test_departure_times_cumulative(self):
        plan = GapFiller().plan([1000.0, 1000.0])
        times = plan.departure_times_ns(start_ns=500.0)
        assert times[0] == 500.0
        assert times[-1] == pytest.approx(2500.0, abs=2.0)

    def test_effective_pps(self):
        plan = GapFiller().plan_pattern(CbrPattern(1e6), 1000)
        assert effective_pps(plan) == pytest.approx(1e6, rel=1e-3)

    def test_render_wire_figure9(self):
        plan = GapFiller().plan([1000.0, 67.2, 1000.0])
        text = plan.render_wire()
        assert text.startswith("| p0 | i0:")
        # The back-to-back pair renders with no filler in between.
        assert "p1 | p2" in text

    def test_render_wire_truncates(self):
        plan = GapFiller().plan([1000.0] * 20)
        assert "p4" in plan.render_wire(5)
        assert "p5" not in plan.render_wire(5)

    def test_total_frame_rate_below_short_frame_limit(self):
        """Even dense filler schedules stay under 15.6 Mpps (Section 8.1)."""
        filler = GapFiller()
        plan = filler.plan_pattern(CbrPattern(7e6), 10_000)
        assert crc_rate_control_frame_rate(plan) <= SHORT_FRAME_MAX_PPS

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.08, max_value=10.0),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_poisson_plan_rate_property(self, mpps, seed):
        """Any feasible Poisson rate is realised accurately on average."""
        filler = GapFiller()
        pattern = PoissonPattern(mpps * 1e6, seed=seed)
        plan = filler.plan_pattern(pattern, 4000)
        realised = effective_pps(plan)
        desired = 1e9 / plan.desired_gaps_ns.mean() * 1e0
        assert realised == pytest.approx(desired * 1e0, rel=0.02)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=67.2, max_value=1e5),
                    min_size=10, max_size=200))
    def test_arbitrary_gaps_error_bounded(self, gaps):
        """Per-gap error is bounded by one minimum filler (the dither's
        carry moves by at most min/2 in each direction), and the cumulative
        error stays within half a filler — high accuracy, bounded
        precision (Section 8.4)."""
        import numpy as np
        plan = GapFiller().plan(gaps)
        assert plan.max_error_ns() <= 76 * 0.8 + 0.8
        cum = np.cumsum(plan.actual_gaps_ns) - np.cumsum(plan.desired_gaps_ns)
        assert np.abs(cum).max() <= (76 / 2 + 1) * 0.8


class TestLoadTaskIntegration:
    def test_fillers_dropped_at_receiver(self):
        env = MoonGenEnv(seed=1)
        tx = env.config_device(0, tx_queues=1)
        rx = env.config_device(1, rx_queues=1)
        env.connect(tx, rx)
        filler = GapFiller()
        pattern = CbrPattern(1e6)

        def craft(buf, index):
            buf.eth_packet.fill(eth_src="02:00:00:00:00:01",
                                eth_dst=str(rx.mac), eth_type=0x0800)

        env.launch(filler.load_task, env, tx.get_tx_queue(0), pattern,
                   50, craft)
        env.wait_for_slaves(duration_ns=5_000_000)
        assert rx.rx_packets == 50
        assert rx.rx_crc_errors > 0
        assert tx.tx_packets == rx.rx_packets + rx.rx_crc_errors

    def test_valid_packet_spacing_on_wire(self):
        """Received valid packets arrive with the planned CBR spacing."""
        env = MoonGenEnv(seed=2)
        tx = env.config_device(0, tx_queues=1)
        rx = env.config_device(1, rx_queues=1)
        env.connect(tx, rx)
        arrivals = []
        original = rx.port.receive

        def spy(frame, t):
            if frame.fcs_ok:
                arrivals.append(t)
            original(frame, t)

        tx.port.wire.connect(spy)
        filler = GapFiller()

        def craft(buf, index):
            buf.eth_packet.fill(eth_type=0x0800)

        env.launch(filler.load_task, env, tx.get_tx_queue(0),
                   CbrPattern(2e6), 60, craft)
        env.wait_for_slaves(duration_ns=5_000_000)
        gaps = np.diff(arrivals) / 1000.0
        assert gaps.mean() == pytest.approx(500.0, rel=0.01)
        assert np.abs(gaps - 500.0).max() <= 1.0  # near-perfect CBR
