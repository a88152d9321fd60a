"""The l2-load-latency path's lean per-frame code against its old shapes.

Each test keeps an in-test copy of the code a hot path replaced and runs
both on identical inputs:

* ``OvsForwarder`` — bound ``_done``/``_egress`` methods, an in-service
  slot and an egress FIFO — against the per-frame ``done``/``egress``
  closures it replaced;
* ``Timestamper._collect`` draining the rx ring with ``RxQueue.drain``
  against the ``try_fetch`` version that built a snapshot per frame;
* ``MemPool``/``RxPacket`` built without the ``PacketData.__init__``
  chain against buffers built through it.

It also checks the batch tier's memoized ``sink-unbatchable`` verdict and
the sequence tracker's tail-loss accounting.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import MoonGenEnv, Timestamper, units
from repro.core.memory import MemPool, PacketBuffer
from repro.core.queues import RxPacket
from repro.core.seqcheck import SequenceTracker
from repro.dut import DutConfig, ItrConfig, OvsForwarder
from repro.errors import PacketError
from repro.faults import FaultPlan, LinkFlap, builtin_plans
from repro.faults.runner import run_plan
from repro.nicsim.eventloop import EventLoop
from repro.nicsim.link import Wire
from repro.nicsim.nic import SimFrame
from repro.packet.packet import PacketData
from tests._hypothesis_profiles import property_settings


# -- the forwarder -----------------------------------------------------------

class ClosureForwarder(OvsForwarder):
    """The forwarder as it was: two closures per forwarded frame."""

    def _poll(self) -> None:
        if not self.ring:
            self._busy = False
            if self.ring:
                self._schedule_interrupt()
            return
        frame = self.ring.popleft()
        if self.dp_ring is not None:
            arrival = frame.meta.get("dut_arrival_ps")
            if arrival is not None:
                self.dp_ring.observe((self.loop.now_ps - arrival) / 1000.0)
        service_ps = round(self.config.service_ns * self.overload * 1000)

        def done(frame=frame) -> None:
            self.moderator.account(1, frame.size)
            self.forwarded += 1
            pipeline_ps = round(self.config.pipeline_ns * 1000)
            departure = self.loop.now_ps + pipeline_ps
            frame.meta["dut_departure_ps"] = departure
            if self.output is not None:
                out = self.output

                def egress(frame=frame, out=out) -> None:
                    out.transmit(frame, frame.size)

                self.loop.schedule(pipeline_ps, egress)
            self._poll()

        self.loop.schedule(service_ps, done)


def _drive_forwarder(cls, arrivals, config, overloads):
    """Feed ``arrivals`` (gap_ns, size, fcs_ok) through a fresh forwarder."""
    loop = EventLoop()
    dut = cls(loop, config)
    wire = Wire(loop, units.SPEED_10G)
    frames = []
    egress = []
    index = {}
    wire.connect(lambda f, t: egress.append((index[id(f)], t)))
    dut.connect_output(wire)
    t_ns = 0.0
    for gap_ns, size, fcs_ok in arrivals:
        t_ns += gap_ns
        frame = SimFrame(b"\x00" * (size - 4), fcs_ok=fcs_ok)
        index[id(frame)] = len(frames)
        frames.append(frame)
        loop.schedule_at(round(t_ns * 1000),
                         lambda f=frame: dut.ingress(f, loop.now_ps))
    for at_ns, factor in overloads:
        loop.schedule_at(round(at_ns * 1000),
                         lambda x=factor: dut.set_overload(x))
    loop.run()
    mod = dut.moderator
    return {
        "counters": dut.counters(),
        "stamps": [(f.meta.get("dut_arrival_ps"),
                    f.meta.get("dut_departure_ps")) for f in frames],
        "egress": egress,
        "moderator": (mod.latency_class, mod.interrupts,
                      mod.last_interrupt_ns, mod._period_bytes,
                      mod._period_packets, mod._clump_len, mod._max_clump,
                      mod._last_arrival_ns, list(mod.class_history)),
        "events": loop.events_processed,
        "now": loop.now_ps,
        "wire": (wire.frames_sent, wire.bytes_sent, wire.busy_until_ps),
    }


_arrival = st.tuples(
    st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
    st.sampled_from((64, 65, 128, 512, 1518)),
    st.sampled_from((True, True, True, False)),  # fcs_ok
)
_itr = st.builds(
    ItrConfig,
    lowest_rate_hz=st.sampled_from((150_000.0, 400_000.0)),
    low_rate_hz=st.sampled_from((20_000.0, 60_000.0)),
    clump_window_ns=st.sampled_from((0.0, 200.0, 1_000.0)),
    interrupt_overhead_ns=st.sampled_from((0.0, 500.0, 2_000.0)),
)
_config = st.builds(
    DutConfig,
    service_ns=st.sampled_from((0.0, 100.0, 520.0, 1_500.0)),
    ring_size=st.integers(min_value=1, max_value=24),
    pipeline_ns=st.sampled_from((0.0, 300.0, 5_000.0)),
    itr=_itr,
)


class TestForwarderMatchesClosureVersion:
    @settings(**property_settings(60))
    @given(arrivals=st.lists(_arrival, min_size=1, max_size=120),
           config=_config,
           overloads=st.lists(
               st.tuples(st.floats(min_value=0.0, max_value=200_000.0),
                         st.sampled_from((0.5, 1.0, 4.0, 16.0))),
               max_size=3))
    def test_same_counters_stamps_and_events(self, arrivals, config,
                                             overloads):
        new = _drive_forwarder(OvsForwarder, arrivals, config, overloads)
        old = _drive_forwarder(ClosureForwarder, arrivals, config, overloads)
        assert new == old

    def test_ring_overflow_and_bad_fcs(self):
        arrivals = [(1.0, 64, i % 5 != 0) for i in range(300)]
        config = DutConfig(ring_size=8)
        new = _drive_forwarder(OvsForwarder, arrivals, config, [(50.0, 3.0)])
        old = _drive_forwarder(ClosureForwarder, arrivals, config,
                               [(50.0, 3.0)])
        assert new["counters"]["rx_dropped"] > 0
        assert new["counters"]["rx_crc_errors"] == 60
        assert new == old

    def test_in_flight_counts_ring_service_and_pipeline(self):
        loop = EventLoop()
        dut = OvsForwarder(loop, DutConfig(pipeline_ns=10_000.0))
        wire = Wire(loop, units.SPEED_10G)
        wire.connect(lambda f, t: None)
        dut.connect_output(wire)
        for i in range(5):
            loop.schedule_at(i * 1000, lambda: dut.ingress(
                SimFrame(b"\x00" * 60), loop.now_ps))
        loop.run(until_ps=6_000_000)
        assert dut.forwarded > 0
        assert dut.in_flight == 5 - wire.frames_sent
        loop.run()
        assert dut.in_flight == 0 and wire.frames_sent == 5


# -- the probe drain ---------------------------------------------------------

class FetchingTimestamper(Timestamper):
    """The probe engine as it was: ``try_fetch`` snapshots, discarded."""

    def _collect(self, rx_queue, timeout_ns: float):
        deadline_ps = self.env.loop.now_ps + round(timeout_ns * 1000)
        port = self.rx_device.port
        while True:
            rx_queue.try_fetch(64)
            stamp = port.read_rx_timestamp()
            if stamp is not None:
                rx_ns, rx_seq = stamp
                tx = self.tx_device.port.read_tx_timestamp()
                if tx is None:
                    return None
                tx_ns, tx_seq = tx
                if (rx_seq is not None and tx_seq is not None
                        and rx_seq != tx_seq):
                    return None
                return rx_ns - tx_ns
            if self.env.loop.now_ps >= deadline_ps:
                return None
            yield self.env.sleep_ns(min(1_000.0, timeout_ns / 10))


def _load_latency(ts_cls, load_mpps, seed, faults=None):
    """A short l2-load-latency run (CBR load + PTP probes through the DuT)."""
    env = MoonGenEnv(seed=seed, core_freq_hz=2.4e9, faults=faults)
    tx = env.config_device(0, tx_queues=2, rx_queues=1)
    rx = env.config_device(1, tx_queues=1, rx_queues=1)
    dut = OvsForwarder(env.loop)
    env.connect_to_sink(tx, dut.ingress)
    dut.connect_output(env.wire_to_device(rx))
    env.register_dut(dut)
    load = tx.get_tx_queue(0)
    load.set_rate_pps(load_mpps * 1e6, units.MIN_FRAME_SIZE)
    dst = str(rx.mac)

    def load_slave(env, queue):
        mem = env.create_mempool(fill=lambda b: b.eth_packet.fill(
            eth_src="02:00:00:00:00:00", eth_dst=dst, eth_type=0x0800))
        bufs = mem.buf_array()
        while env.running():
            bufs.alloc(units.MIN_FRAME_SIZE - 4)
            yield queue.send(bufs)

    env.launch(load_slave, env, load)
    ts = ts_cls(env, tx.get_tx_queue(1), rx)
    env.launch(ts.probe_task, 1_000, 20_000.0)
    env.wait_for_slaves(duration_ns=300_000)
    port = rx.port
    hist = ts.histogram
    return {
        "samples": list(hist.samples),
        "quartiles": list(hist.quartiles()) if len(hist) else [],
        "lost": ts.lost_probes,
        "attempted": ts.attempted,
        "port": (port.rx_packets, port.rx_bytes, port.rx_missed,
                 port.rx_crc_errors, port.timestamp_missed,
                 len(port.rx_queues[0].ring)),
        "dut": dut.counters(),
        "events": env.loop.events_processed,
        "now": env.loop.now_ps,
    }


class TestTimestamperDrain:
    @pytest.mark.parametrize("load_mpps", (0.3, 1.2, 1.9))
    def test_drain_matches_try_fetch(self, load_mpps):
        new = _load_latency(Timestamper, load_mpps, seed=9)
        old = _load_latency(FetchingTimestamper, load_mpps, seed=9)
        assert new["samples"]
        assert new == old

    def test_drain_matches_try_fetch_under_loss(self):
        plan = FaultPlan(faults=(LinkFlap("port:1", 50_000.0, 120_000.0),))
        new = _load_latency(Timestamper, 1.0, seed=3, faults=plan)
        old = _load_latency(FetchingTimestamper, 1.0, seed=3, faults=plan)
        assert new["lost"] > 0
        assert new == old

    def test_drain_returns_count_and_empties_ring(self):
        env = MoonGenEnv()
        rx = env.config_device(1, rx_queues=1)
        queue = rx.get_rx_queue(0)
        for _ in range(70):
            queue.sim.deliver(SimFrame(b"\x00" * 60))
        assert queue.drain(64) == 64
        assert queue.drain(64) == 6
        assert queue.drain(64) == 0
        assert queue.rx_packets == 70


# -- pool and rx-snapshot construction ---------------------------------------

def _old_pool_buffers(n, capacity, fill):
    """Buffers built the old way: ``PacketBuffer.__init__`` + size setter."""
    pool = MemPool.__new__(MemPool)
    out = []
    for _ in range(n):
        buf = PacketBuffer(pool, capacity)
        if fill is not None:
            fill(buf)
        buf.pkt.size = capacity
        out.append(buf)
    return out


def _buffer_state(buf):
    return (bytes(buf.data), len(buf.data), buf.size, buf.pkt is buf,
            buf.in_pool, buf.offload_ip, buf.offload_l4, buf.timestamp_flag,
            buf.corrupt_fcs)


def _fill_eth(b):
    b.eth_packet.fill(eth_src="02:00:00:00:00:00",
                      eth_dst="02:00:00:00:00:01", eth_type=0x0800)


def _fill_udp(b):
    b.udp_packet.fill(pkt_length=60, udp_dst=319)


def _fill_ptp(b):
    b.pkt.ptp_packet.fill(pkt_length=80, ptp_sequence=7)


class TestLeanPoolBuild:
    @pytest.mark.parametrize("fill", (None, _fill_eth, _fill_udp, _fill_ptp))
    @pytest.mark.parametrize("capacity", (96, 512, 2048))
    def test_buffers_equal_old_built(self, fill, capacity):
        pool = MemPool(n_buffers=8, buf_capacity=capacity, fill=fill)
        new = list(pool._free)
        old = _old_pool_buffers(8, capacity, fill)
        assert [_buffer_state(b) for b in new] == \
            [_buffer_state(b) for b in old]
        assert all(b.pool is pool for b in new)

    def test_fill_runs_once_per_buffer_in_order(self):
        seen = []
        pool = MemPool(n_buffers=16, buf_capacity=128,
                       fill=lambda b: seen.append(b))
        assert seen == list(pool._free)
        assert len(set(map(id, seen))) == 16

    def test_fill_errors_raise_at_construction(self):
        def bad(buf):
            if len(bad.calls) == 3:
                raise ValueError("boom")
            bad.calls.append(buf)
        bad.calls = []
        with pytest.raises(ValueError, match="boom"):
            MemPool(n_buffers=8, buf_capacity=128, fill=bad)
        assert len(bad.calls) == 3

    def test_fill_that_shrinks_the_buffer_still_raises(self):
        def shrink(buf):
            buf.data = bytearray(10)
        with pytest.raises(PacketError, match="out of range"):
            MemPool(n_buffers=2, buf_capacity=128, fill=shrink)

    def test_negative_capacity_raises_packet_error(self):
        with pytest.raises(PacketError, match="negative packet size"):
            MemPool(n_buffers=2, buf_capacity=-1)

    def test_fill_resizing_the_frame_is_reset_to_capacity(self):
        pool = MemPool(n_buffers=2, buf_capacity=256, fill=_fill_udp)
        assert all(b.size == 256 for b in pool._free)

    @pytest.mark.parametrize("size", (0, 14, 59, 60, 64, 200, 1514))
    def test_rx_packet_equals_old_snapshot(self, size):
        frame = SimFrame(bytes(range(256)) * (size // 256)
                         + bytes(range(size % 256)))
        frame.meta["rx_timestamp_ns"] = 12.8
        new = RxPacket(frame)
        old = RxPacket.__new__(RxPacket)
        PacketData.__init__(old, size, max(64, size))
        old.data[:size] = frame.data
        assert bytes(new.data) == bytes(old.data)
        assert new.size == old.size == size
        assert new.pkt is new and not new.in_pool
        assert not (new.offload_ip or new.offload_l4 or new.timestamp_flag)
        assert new.frame is frame and new.rx_timestamp_ns == 12.8


# -- batch refusal at DuT sinks ----------------------------------------------

def _batched_dut_run(forget_verdict):
    from repro.batch import BatchTier

    orig = BatchTier.execute

    def execute(self, port, start_ps):
        if forget_verdict:
            port._batch_sink = None
        return orig(self, port, start_ps)

    BatchTier.execute = execute
    try:
        env = MoonGenEnv(seed=9, batch=True, core_freq_hz=2.4e9)
        tx = env.config_device(0, tx_queues=2, rx_queues=1)
        rx = env.config_device(1, tx_queues=1, rx_queues=1)
        dut = OvsForwarder(env.loop)
        wire = env.connect_to_sink(tx, dut.ingress)
        dut.connect_output(env.wire_to_device(rx))
        tx.get_tx_queue(0).set_rate_pps(1.5e6, units.MIN_FRAME_SIZE)

        def load_slave(env, queue):
            mem = env.create_mempool()
            bufs = mem.buf_array()
            while env.running():
                bufs.alloc(60)
                yield queue.send(bufs)

        env.launch(load_slave, env, tx.get_tx_queue(0))
        env.wait_for_slaves(duration_ns=100_000)
        return (env.loop.batch.stats(), tx.port._batch_sink, wire,
                dut.counters(), env.loop.events_processed)
    finally:
        BatchTier.execute = orig


class TestSinkVerdictMemo:
    def test_fallback_counts_match_unmemoized(self):
        memo, verdict, wire, counters, events = _batched_dut_run(False)
        fresh, _, _, counters2, events2 = _batched_dut_run(True)
        assert memo["fallbacks"].get("sink-unbatchable", 0) > 0
        assert memo == fresh
        assert (counters, events) == (counters2, events2)
        # The refusal is remembered for exactly this (wire, sink) pair.
        assert verdict[0] is wire and verdict[1] is wire.sink
        assert verdict[2] is None


# -- tail loss ----------------------------------------------------------------

class _Seq:
    def __init__(self, seq):
        self.pkt = PacketData(64)
        self.pkt.data[42:46] = seq.to_bytes(4, "big")


class TestTailLoss:
    def test_tracker_counts_frames_after_the_last_seen(self):
        tracker = SequenceTracker()
        for seq in (0, 1, 2, 5, 6):
            tracker.observe(_Seq(seq))
        assert tracker.report.lost == 2
        assert tracker.count_tail_loss(10) == 3
        report = tracker.report
        assert (report.received, report.lost) == (5, 5)
        assert report.gap_events == 1 and report.longest_gap == 2
        assert report.loss_fraction == 0.5
        # A straggler from the tail reorders like one from a gap.
        tracker.observe(_Seq(8))
        assert (report.received, report.lost, report.reordered) == (6, 4, 1)

    def test_no_tail_leaves_the_report_alone(self):
        tracker = SequenceTracker()
        for seq in range(4):
            tracker.observe(_Seq(seq))
        before = dict(vars(tracker.report))
        assert tracker.count_tail_loss(4) == 0
        assert tracker.count_tail_loss(2) == 0
        assert vars(tracker.report) == before

    def test_total_loss_reads_one(self):
        plan = FaultPlan(faults=(LinkFlap("port:1", 0.0, 1e30),))
        result = run_plan(plan, duration_ns=2e6)
        assert result["tx_packets"] > 0 and result["rx_packets"] == 0
        assert result["seq_received"] == 0
        assert result["seq_lost"] > 0
        assert result["loss_fraction"] == 1.0

    def test_total_loss_through_the_dut_reads_one(self):
        from repro.faults import DutOverload

        plan = FaultPlan(faults=(DutOverload("dut", 0.0, 1e30, factor=1.0),
                                 LinkFlap("port:1", 0.0, 1e30)))
        result = run_plan(plan, duration_ns=1e6)
        assert result["dut_forwarded"] > 0 and result["rx_packets"] == 0
        assert result["loss_fraction"] == 1.0

    @pytest.mark.parametrize("name,lost", [("clock-step", 0), ("flap", 2250),
                                           ("burst-loss", 625)])
    def test_runs_without_tail_loss_are_unchanged(self, name, lost):
        # Values from before tail-loss accounting.  The clock-step run
        # loses 27 frames to an rx ring nobody reads after the receiver
        # stopped; they are not due, so its loss stays 0.
        result = run_plan(builtin_plans(seed=4)[name], duration_ns=6.5e6)
        assert result["seq_lost"] == lost
        if name == "clock-step":
            assert result["rx_missed"] == 27
            assert result["loss_fraction"] == 0.0
