"""Simulated NIC ports.

Implements the hardware architecture Section 3.3 of the paper describes and
the rest of the paper exploits:

* multiple independent transmit/receive queues per port (descriptor rings),
* the asynchronous push-pull model: software enqueues descriptors, the NIC
  fetches and serializes frames on its own schedule (Section 7.1's Figure 5),
* per-queue hardware rate control (CBR) with the granularity of the chip's
  internal rate-control clock (Section 7.2/7.3),
* PTP timestamp units: one tx and one rx timestamp register that must be
  read back before the next packet can be timestamped (Section 6), or —
  on the 82580 — timestamping of *all* received packets,
* CRC checking on receive: frames with a bad FCS are dropped before queue
  assignment, only an error counter increments (the property Section 8's
  software rate control relies on),
* chip-specific capacity limits (the XL710's packet-rate and aggregate
  bandwidth caps from Section 5.4).

Hot-path notes (docs/PERFORMANCE.md): the per-frame classes carry
``__slots__``, frames come from a :class:`FramePool`, effective frame
times are cached per (size, speed), and steady-state CBR segments can be
fast-forwarded arithmetically when ``NicPort.fast_forward`` is enabled
(off by default; see :meth:`NicPort._fast_forward` for the fidelity
conditions that force the event-by-event path).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro import units
from repro.errors import ConfigurationError, QueueError
from repro.nicsim.clock import NicClock, clock_for_speed
from repro.nicsim.eventloop import EventLoop, Signal
from repro.nicsim.link import Wire
from repro.packet.ethernet import EtherType
from repro.packet.ip4 import IpProtocol
from repro.packet.ptp import PTP_UDP_PORT

_frame_seq = itertools.count()

#: Hoisted per-frame constants (``units`` lookups cost an attribute hop on
#: the hottest allocation path).
_FCS_SIZE = units.FCS_SIZE
_WIRE_OVERHEAD = units.WIRE_OVERHEAD


class SimFrame:
    """A frame in flight: an immutable snapshot of a packet buffer.

    ``data`` excludes the FCS; ``fcs_ok`` says whether the NIC computed a
    correct FCS (the CRC-gap mechanism intentionally sends broken ones).

    ``size``/``wire_size`` are plain attributes, not properties: the MAC,
    wire, and DUT models read them several times per frame.
    """

    __slots__ = ("data", "fcs_ok", "seq", "meta", "size", "wire_size", "pool",
                 "recycle")

    def __init__(self, data: bytes, fcs_ok: bool = True) -> None:
        self.data = data
        self.fcs_ok = fcs_ok
        self.seq = next(_frame_seq)
        #: Free-form metadata: flow ids, software send time, filler marks...
        self.meta: Dict[str, object] = {}
        #: Frame size including FCS, the paper's "packet size".
        size = len(data) + _FCS_SIZE
        self.size = size
        self.wire_size = size + _WIRE_OVERHEAD
        #: Owning :class:`FramePool`, or ``None`` for unpooled frames.
        self.pool: Optional["FramePool"] = None
        #: Descriptor-fetch hook: called (and cleared) when the NIC DMAs
        #: this frame out of a tx ring — the mempool recycle of Section
        #: 4.2.  A dedicated slot because it exists on every transmitted
        #: frame; ``meta["recycle"]`` is still honoured as a fallback for
        #: hand-built frames.
        self.recycle = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SimFrame(seq={self.seq}, size={self.size}, "
                f"fcs_ok={self.fcs_ok})")

    def is_ptp(self) -> bool:
        """True if the frame matches the NIC PTP timestamp filters.

        Either PTP over Ethernet (EtherType 0x88F7) or PTP over UDP port
        319; only the EtherType / port matters, plus a version byte check —
        exactly the filters the Intel chips implement.
        """
        d = self.data
        if len(d) < 14:
            return False
        ether_type = (d[12] << 8) | d[13]
        if ether_type == EtherType.PTP:
            return len(d) >= 16 and (d[15] & 0x0F) == 2
        if ether_type == EtherType.IP4 and len(d) >= 38:
            ihl = (d[14] & 0x0F) * 4
            if d[23] != IpProtocol.UDP:
                return False
            l4 = 14 + ihl
            if len(d) < l4 + 8 + 2:
                return False
            dst_port = (d[l4 + 2] << 8) | d[l4 + 3]
            if dst_port != PTP_UDP_PORT:
                return False
            # Section 6.4: the NICs refuse to timestamp UDP PTP packets
            # smaller than the expected 80 bytes.
            if self.size < 80:
                return False
            return (d[l4 + 8 + 1] & 0x0F) == 2
        return False

    def ptp_sequence(self) -> Optional[int]:
        """The PTP sequence id, used to match timestamps to probes."""
        d = self.data
        if len(d) < 14:
            return None
        ether_type = (d[12] << 8) | d[13]
        if ether_type == EtherType.PTP:
            offset = 14 + 30
        elif ether_type == EtherType.IP4:
            ihl = (d[14] & 0x0F) * 4
            offset = 14 + ihl + 8 + 30
        else:
            return None
        if len(d) < offset + 2:
            return None
        return (d[offset] << 8) | d[offset + 1]


class FramePool:
    """Recycles :class:`SimFrame` shells so steady-state transmit loops stop
    churning the allocator (the simulator's analog of DPDK's mempools).

    ``acquire`` re-initialises a retired shell with a **fresh sequence
    number and a fresh meta dict**, so observers that key on ``frame.seq``
    (the tracer's ``frame_id`` does) or that kept the old meta dict cannot
    tell a recycled frame from a new allocation — golden traces are
    byte-identical with pooling on or off.

    ``release`` is only called at provable end-of-life points: an FCS drop
    before queue assignment, an rx-ring overflow, or a transmit into an
    unwired port.  Frames software can still reach (rx rings, fetched
    ``RxPacket.frame`` references, observer callbacks) are never recycled;
    frames constructed directly (``pool is None``) are never recycled
    either, so tests that hold on to hand-made frames are unaffected.
    """

    __slots__ = ("max_free", "_free", "recycled")

    def __init__(self, max_free: int = 4096) -> None:
        self.max_free = max_free
        self._free: List[SimFrame] = []
        #: Shells handed out more than once (observability/debugging).
        self.recycled = 0

    def acquire(self, data: bytes, fcs_ok: bool = True) -> SimFrame:
        free = self._free
        if free:
            frame = free.pop()
            frame.data = data
            frame.fcs_ok = fcs_ok
            frame.seq = next(_frame_seq)
            frame.meta = {}
            size = len(data) + _FCS_SIZE
            frame.size = size
            frame.wire_size = size + _WIRE_OVERHEAD
            frame.pool = self
            self.recycled += 1
            return frame
        frame = SimFrame(data, fcs_ok)
        frame.pool = self
        return frame

    def release(self, frame: SimFrame) -> None:
        # ``pool`` doubles as the liveness flag: it is cleared here and
        # restored by acquire, so double releases and releases of unpooled
        # frames are no-ops.
        if frame.pool is not self:
            return
        frame.pool = None
        if len(self._free) < self.max_free:
            frame.data = b""
            # An unfetched frame can reach end-of-life (transmit into an
            # unwired port) with its hook still set; a stale hook on a
            # reused shell would recycle the wrong buffer.
            frame.recycle = None
            if frame.meta:
                frame.meta = {}
            self._free.append(frame)


#: Process-wide pool used by the packet-buffer materialization path.
default_frame_pool = FramePool()


@dataclass(frozen=True)
class ChipModel:
    """Static description of a NIC chip family."""

    name: str
    speed_bps: int
    queues: int
    tx_fifo_bytes: int
    rx_fifo_bytes: int
    #: Supports per-queue hardware rate control.
    hw_rate_control: bool
    #: Supports PTP timestamp registers.
    hw_timestamping: bool
    #: Timestamps every received packet (82580-style buffer prepend).
    timestamp_all_rx: bool = False
    #: Latch granularity in clock ticks (2 on the 82599, Section 6.1).
    latch_ticks: int = 1
    #: Grid phase term: the 82580's k*8 ns constant (set per reset).
    phase_step_ns: float = 0.0
    #: Hardware rate control becomes unpredictable above this rate
    #: (Section 7.5: ~9 Mpps on X520/X540).
    hw_rate_max_pps: float = float("inf")
    #: Max packet rate the MAC can emit per port regardless of size
    #: (Section 8.1: 15.6 Mpps with short frames on X540/82599; the XL710's
    #: small-packet bottleneck).
    max_pps: float = float("inf")
    #: Aggregate packet rate over all ports of one card (XL710: 42 Mpps).
    card_max_pps: float = float("inf")
    #: Aggregate wire bandwidth over all ports of one card
    #: (XL710: 50 Gbit/s measured, Section 5.4).
    card_max_bps: float = float("inf")
    #: Rate-control clock tick in ns (estimated; scales with link speed,
    #: Section 7.3 predicts 10x finer granularity at 10 GbE).
    rate_clock_ns: float = 2.56


CHIP_82599 = ChipModel(
    name="82599", speed_bps=units.SPEED_10G, queues=128,
    tx_fifo_bytes=160 * 1024, rx_fifo_bytes=512 * 1024,
    hw_rate_control=True, hw_timestamping=True,
    latch_ticks=2, hw_rate_max_pps=9e6, max_pps=15.6e6,
)

CHIP_X520 = ChipModel(
    name="X520", speed_bps=units.SPEED_10G, queues=128,
    tx_fifo_bytes=160 * 1024, rx_fifo_bytes=512 * 1024,
    hw_rate_control=True, hw_timestamping=True,
    latch_ticks=2, hw_rate_max_pps=9e6, max_pps=15.6e6,
)

CHIP_X540 = ChipModel(
    name="X540", speed_bps=units.SPEED_10G, queues=128,
    tx_fifo_bytes=160 * 1024, rx_fifo_bytes=512 * 1024,
    hw_rate_control=True, hw_timestamping=True,
    latch_ticks=1, hw_rate_max_pps=9e6, max_pps=15.6e6,
)

CHIP_82580 = ChipModel(
    name="82580", speed_bps=units.SPEED_1G, queues=8,
    tx_fifo_bytes=40 * 1024, rx_fifo_bytes=64 * 1024,
    hw_rate_control=False, hw_timestamping=True,
    timestamp_all_rx=True, phase_step_ns=8.0, rate_clock_ns=25.6,
)

CHIP_XL710 = ChipModel(
    name="XL710", speed_bps=units.SPEED_40G, queues=384,
    tx_fifo_bytes=512 * 1024, rx_fifo_bytes=1024 * 1024,
    hw_rate_control=False, hw_timestamping=False,
    max_pps=32e6, card_max_pps=42e6, card_max_bps=50e9,
)

#: Default descriptor ring size (DPDK's usual default).
DEFAULT_RING_SIZE = 512


class PendingSend:
    """A producer's in-progress blocking send, visible to the NIC.

    Producers that push a frame batch and park on ``space_signal`` until
    the whole batch is ringed (``Task._send``) open one of these around
    the operation.  ``enqueue`` advances :attr:`sent` as descriptors are
    accepted, and :attr:`parked` marks the spans spent waiting on the
    space signal.  The batch tier reads the handle to model the producer's
    park/wake sawtooth in closed form — and *writes* :attr:`sent` when a
    kernel performs the producer's pushes arithmetically, so the woken
    producer resumes from the right offset either way.

    :attr:`defer` is the tier's hand-off latch for a producer caught
    *mid-call* (inside its own ``enqueue``): the detector performs the
    producer's post-kick pushes up front, then sets ``defer`` so the
    producer's in-flight ``enqueue`` returns 0 and the task parks on the
    space signal even though slots may be free.  ``_fetch_from_ring``
    clears the latch at the instant it would genuinely wake the producer,
    restoring the ordinary sawtooth.
    """

    __slots__ = ("frames", "total", "sent", "parked", "defer")

    def __init__(self, frames: List["SimFrame"]) -> None:
        self.frames = frames
        self.total = len(frames)
        self.sent = 0
        self.parked = False
        self.defer = False


class TxQueueSim:
    """A transmit queue: descriptor ring + optional hardware rate limiter."""

    __slots__ = ("port", "index", "ring_size", "ring", "space_signal",
                 "space_wake_threshold", "rate_bps", "next_allowed_ps",
                 "_rate_error_ps", "tx_packets", "tx_bytes", "stalled",
                 "pending_send")

    def __init__(self, port: "NicPort", index: int,
                 ring_size: int = DEFAULT_RING_SIZE) -> None:
        self.port = port
        self.index = index
        self.ring_size = ring_size
        self.ring: Deque[SimFrame] = deque()
        self.space_signal = Signal()
        #: Producers parked on a full ring are woken once this many slots
        #: are free (or the ring empties), not per descriptor — the analog
        #: of DPDK's ``tx_free_thresh`` batch cleanup.  Totals and rates are
        #: unchanged; only the producer's wakeup instants coarsen.
        self.space_wake_threshold = min(32, max(1, ring_size // 4))
        #: Rate limit in bits/s of wire occupancy; 0 disables.
        self.rate_bps = 0.0
        self.next_allowed_ps = 0
        self._rate_error_ps = 0.0
        self.tx_packets = 0
        self.tx_bytes = 0
        #: Fault injection (``repro.faults``): a stalled queue is neither
        #: prefetched into the FIFO nor picked by the MAC — descriptors
        #: accumulate in the ring and producers back-pressure on the space
        #: signal.  Cleared by the injector, which then kicks the MAC.
        self.stalled = False
        #: The one blocking send in progress on this queue (or ``None``);
        #: see :class:`PendingSend`.
        self.pending_send: Optional[PendingSend] = None

    @property
    def free_slots(self) -> int:
        return self.ring_size - len(self.ring)

    def open_send(self, frames: List["SimFrame"]) -> Optional["PendingSend"]:
        """Declare a blocking batch send; ``None`` if one is already open.

        A second concurrent producer on the same queue falls back to the
        undeclared busy-wait protocol (the batch tier then refuses to model
        its park/wake instants — correct, just slower).
        """
        if self.pending_send is not None:
            return None
        pend = PendingSend(frames)
        self.pending_send = pend
        return pend

    def close_send(self, pend: "PendingSend") -> None:
        if self.pending_send is pend:
            self.pending_send = None

    def set_rate(self, mbps: float) -> None:
        """Configure hardware CBR rate control (MoonGen's ``setRate``).

        ``mbps`` counts wire occupancy (frame + preamble/SFD/IFG) like the
        NIC's own pacer.  Raises if the chip has no rate control.
        """
        if not self.port.chip.hw_rate_control and mbps > 0:
            raise ConfigurationError(
                f"chip {self.port.chip.name} has no hardware rate control"
            )
        if mbps < 0:
            raise ConfigurationError(f"negative rate: {mbps}")
        self.rate_bps = mbps * 1e6

    def set_rate_pps(self, pps: float, frame_size: int) -> None:
        """Configure the limiter for a target packet rate at a frame size."""
        wire_bits = units.wire_length(frame_size) * 8
        self.set_rate(pps * wire_bits / 1e6)

    def enqueue(self, frames: List[SimFrame], start: int = 0) -> int:
        """Append descriptors from ``frames[start:]``; returns how many fit.

        ``start`` lets a blocked producer resume mid-batch without slicing
        the remainder on every ring-space wakeup (the wakeups arrive one
        descriptor at a time when the ring is full).
        """
        ring = self.ring
        pend = self.pending_send
        if pend is not None and pend.defer and frames is pend.frames:
            # The batch tier already ringed this span arithmetically; the
            # producer's own in-flight enqueue must observe "no progress"
            # and park until the fetch path clears the latch.
            return 0
        free = self.ring_size - len(ring)
        if free <= 0:
            return 0
        avail = len(frames) - start
        if avail <= free:
            accepted = avail
            if start:
                ring.extend(frames[start:])
            else:
                ring.extend(frames)
        else:
            accepted = free
            ring.extend(frames[start:start + free])
        if accepted > 0:
            pend = self.pending_send
            if pend is not None and frames is pend.frames:
                # Keep the declared send's progress current *before* the
                # kick: the batch tier may continue the producer's pushes
                # arithmetically from exactly this offset.
                pend.sent = start + accepted
            port = self.port
            if port.dataplane is not None:
                # Ingress stamp: descriptor-ring entry time, read back by
                # the fetch path (tx-queue residence) and the wire (e2e).
                now_ps = port.loop.now_ps
                for f in frames[start:start + accepted]:
                    f.meta["dp_enq_ps"] = now_ps
            # A producer resumed from inside _prefetch (its space signal)
            # needs no kick: the prefetch loop re-reads the ring, and the
            # outer kick transmits once the FIFO is filled.
            if not port._prefetching:
                # Mark the kick as running synchronously inside a
                # producer's enqueue (the batch tier must preserve the
                # ring state its continuation observes).  ``_enqueue_short``
                # flags a partial accept: the caller still holds unsent
                # frames and reacts to the post-kick ring at this instant.
                port._in_enqueue += 1
                short = accepted < avail
                prev_short = port._enqueue_short
                if short:
                    port._enqueue_short = True
                port._mac_kick()
                port._in_enqueue -= 1
                port._enqueue_short = prev_short
        return accepted

    def _advance_rate_limiter(self, start_ps: int, frame: SimFrame) -> None:
        """Move the earliest next transmit time per the configured rate.

        The inter-departure time is quantized to the chip's rate-control
        clock; the quantization error is carried over so the average rate is
        exact (this is the dithering that causes the ±256 ns oscillation the
        paper measures in Section 7.3).
        """
        if self.rate_bps <= 0:
            self.next_allowed_ps = start_ps
            return
        gap_ps = frame.wire_size * 8 * 1e12 / self.rate_bps
        tick_ps = self.port.rate_clock_ps
        ideal = gap_ps + self._rate_error_ps
        ticks = round(ideal / tick_ps)
        if ticks < 1:
            ticks = 1
        actual = ticks * tick_ps
        self._rate_error_ps = ideal - actual
        self.next_allowed_ps = start_ps + round(actual)


class RxQueueSim:
    """A receive queue: descriptor ring filled by the NIC, drained by software."""

    __slots__ = ("port", "index", "ring_size", "ring", "packet_signal",
                 "rx_packets", "rx_bytes", "frozen")

    def __init__(self, port: "NicPort", index: int,
                 ring_size: int = DEFAULT_RING_SIZE) -> None:
        self.port = port
        self.index = index
        self.ring_size = ring_size
        self.ring: Deque[SimFrame] = deque()
        self.packet_signal = Signal()
        self.rx_packets = 0
        self.rx_bytes = 0
        #: Fault injection (``repro.faults``): a frozen descriptor ring
        #: refuses delivery, so arrivals take the existing ``rx_missed`` /
        #: ``drop_rx_ring`` overflow path.
        self.frozen = False

    def deliver(self, frame: SimFrame) -> bool:
        """NIC-side delivery; False if the ring overflowed (or is frozen)."""
        if self.frozen or len(self.ring) >= self.ring_size:
            return False
        self.ring.append(frame)
        self.rx_packets += 1
        self.rx_bytes += frame.size
        signal = self.packet_signal
        if signal._waiters:
            signal.trigger()
        return True

    def fetch(self, max_frames: int) -> List[SimFrame]:
        """Software-side poll: take up to ``max_frames`` from the ring."""
        ring = self.ring
        if len(ring) <= max_frames:
            out = list(ring)
            ring.clear()
            return out
        pop = ring.popleft
        return [pop() for _ in range(max_frames)]


class NicCard:
    """A physical adapter: shares aggregate limits between its ports.

    Needed for the XL710, whose MAC layer caps the *sum* of both ports
    (Section 5.4); for other chips the caps are infinite and this class is
    inert bookkeeping.
    """

    __slots__ = ("chip", "ports", "_card_capped", "_pps_floor_ps", "_ft_cache")

    def __init__(self, chip: ChipModel) -> None:
        self.chip = chip
        self.ports: List["NicPort"] = []
        inf = float("inf")
        #: Card-level caps are shared between *active* ports, so their frame
        #: time depends on current port activity; the per-port pps cap and
        #: the plain wire time depend only on (size, speed) and are memoized
        #: without consulting the other ports.
        self._card_capped = (chip.card_max_pps != inf
                             or chip.card_max_bps != inf)
        self._pps_floor_ps = (round(1e12 / chip.max_pps)
                              if chip.max_pps != inf else 0)
        self._ft_cache: Dict[Tuple, int] = {}

    def active_tx_ports(self) -> int:
        return sum(1 for p in self.ports if p.has_pending_tx()) or 1

    def effective_frame_time_ps(self, frame: SimFrame, speed_bps: int) -> int:
        """MAC occupancy per frame after applying all hardware caps."""
        cache = self._ft_cache
        if not self._card_capped:
            key = (frame.size, speed_bps)
            time_ps = cache.get(key)
            if time_ps is None:
                time_ps = units.frame_time_ps(frame.size, speed_bps)
                floor = self._pps_floor_ps
                if floor > time_ps:
                    time_ps = floor
                cache[key] = time_ps
            return time_ps
        # Card-capped chips share limits between active ports: the activity
        # count is part of the cache key, so the memo stays exact.
        active = self.active_tx_ports()
        key = (frame.size, speed_bps, active)
        time_ps = cache.get(key)
        if time_ps is not None:
            return time_ps
        times = [units.frame_time_ps(frame.size, speed_bps)]
        chip = self.chip
        inf = float("inf")
        if chip.max_pps != inf:
            times.append(round(1e12 / chip.max_pps))
        if chip.card_max_pps != inf:
            times.append(round(1e12 * active / chip.card_max_pps))
        if chip.card_max_bps != inf:
            bits = frame.wire_size * 8
            times.append(round(bits * 1e12 * active / chip.card_max_bps))
        time_ps = max(times)
        cache[key] = time_ps
        return time_ps


class NicPort:
    """One network port of a simulated NIC."""

    __slots__ = (
        "loop", "chip", "port_id", "speed_bps", "card", "tx_queues",
        "rx_queues", "clock", "wire", "rate_clock_ps", "_tx_timestamp",
        "_tx_timestamp_seq", "_rx_timestamp", "_rx_timestamp_seq",
        "timestamp_missed", "rx_filter", "tx_packets", "tx_bytes",
        "rx_packets", "rx_bytes", "rx_crc_errors", "rx_missed", "_mac_busy",
        "_mac_wakeup", "_rr_next", "_fifo", "_fifo_bytes", "_prefetching",
        "_in_enqueue", "_enqueue_short", "tx_observers", "fast_forward",
        "fast_forwarded", "link_up", "link_changes", "link_signal",
        "dma_slowdown", "_batch_sink", "dataplane",
    )

    def __init__(
        self,
        loop: EventLoop,
        chip: ChipModel = CHIP_X540,
        port_id: int = 0,
        n_tx_queues: int = 1,
        n_rx_queues: int = 1,
        speed_bps: Optional[int] = None,
        card: Optional[NicCard] = None,
        clock_drift_ppm: float = 0.0,
        clock_phase_steps: int = 0,
    ) -> None:
        if n_tx_queues > chip.queues or n_rx_queues > chip.queues:
            raise ConfigurationError(
                f"{chip.name} supports {chip.queues} queues, requested "
                f"{n_tx_queues} tx / {n_rx_queues} rx"
            )
        self.loop = loop
        self.chip = chip
        self.port_id = port_id
        self.speed_bps = speed_bps or chip.speed_bps
        self.card = card or NicCard(chip)
        self.card.ports.append(self)
        self.tx_queues = [TxQueueSim(self, i) for i in range(n_tx_queues)]
        self.rx_queues = [RxQueueSim(self, i) for i in range(n_rx_queues)]
        self.clock: NicClock = clock_for_speed(
            loop, self.speed_bps,
            latch_ticks=chip.latch_ticks,
            drift_ppm=clock_drift_ppm,
            phase_ns=chip.phase_step_ns * clock_phase_steps,
        )
        self.wire: Optional[Wire] = None
        #: Rate-control clock tick (ps); scales with link speed (Section 7.3).
        scale = chip.speed_bps / self.speed_bps
        self.rate_clock_ps = round(chip.rate_clock_ns * scale * 1000)
        # Timestamp registers (one each for tx and rx, Section 6).
        self._tx_timestamp: Optional[float] = None
        self._tx_timestamp_seq: Optional[int] = None
        self._rx_timestamp: Optional[float] = None
        self._rx_timestamp_seq: Optional[int] = None
        self.timestamp_missed = 0
        # RX dispatch.
        self.rx_filter: Optional[Callable[[SimFrame], int]] = None
        # Counters (the NIC statistics registers).
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.rx_crc_errors = 0
        self.rx_missed = 0
        # MAC state.
        self._mac_busy = False
        self._mac_wakeup = None
        self._rr_next = 0
        # On-chip transmit FIFO (Section 3.2: 160 kB on the X540 conceals
        # ~128 µs of pauses at 10 GbE).  The NIC prefetches descriptors
        # from unpaced queues into the FIFO; rate-limited queues are
        # fetched on their pacing schedule instead.  Entries are
        # (frame, source queue) pairs so the MAC can attribute per-queue
        # counters without touching the frame's meta dict.
        self._fifo: Deque[Tuple[SimFrame, TxQueueSim]] = deque()
        self._fifo_bytes = 0
        self._prefetching = False
        # Depth of synchronous ``enqueue -> _mac_kick`` frames on the call
        # stack, and whether the innermost one accepted fewer descriptors
        # than offered (``repro.batch`` detection inputs).
        self._in_enqueue = 0
        self._enqueue_short = False
        #: Observers called with (frame, tx_start_ps) for every sent frame;
        #: benches use this to record exact departure times.
        self.tx_observers: List[Callable[[SimFrame, int], None]] = []
        #: Opt-in steady-state accelerator (see :meth:`_fast_forward`).
        self.fast_forward = False
        #: Frames sent through the fast-forward path (observability).
        self.fast_forwarded = 0
        # Fault injection (``repro.faults``): link/carrier state as software
        # sees it (the LSC interrupt's view), and a DMA-slowdown factor that
        # stretches the per-frame MAC occupancy (PCIe contention model).
        self.link_up = True
        self.link_changes = 0
        self.link_signal = Signal()
        self.dma_slowdown = 1.0
        # ``repro.batch`` sink-validation memo: the detector's verdict on
        # the last ``(wire, sink)`` pair, as ``(wire, sink, sink_port)``
        # with ``sink_port`` ``None`` for a sink that is not a
        # ``NicPort.receive`` (e.g. a DuT's ingress).
        self._batch_sink: Optional[
            Tuple[object, object, Optional["NicPort"]]] = None
        #: In-dataplane latency observation state
        #: (:class:`repro.metrics.dataplane.PortDataplane`), attached by
        #: :meth:`repro.metrics.dataplane.DataplaneObserver.attach_port`.
        #: ``None`` keeps every hook a single ``is not None`` test.
        self.dataplane = None

    # -- wiring ----------------------------------------------------------------

    def attach_wire(self, wire: Wire) -> None:
        """Connect the transmit side of this port to a wire."""
        self.wire = wire

    def get_tx_queue(self, index: int) -> TxQueueSim:
        try:
            return self.tx_queues[index]
        except IndexError:
            raise QueueError(f"port {self.port_id} has no tx queue {index}") from None

    def get_rx_queue(self, index: int) -> RxQueueSim:
        try:
            return self.rx_queues[index]
        except IndexError:
            raise QueueError(f"port {self.port_id} has no rx queue {index}") from None

    def set_rx_filter(self, fn: Callable[[SimFrame], int]) -> None:
        """Install a Flow-Director-style filter mapping frames to rx queues."""
        self.rx_filter = fn

    def set_link_state(self, up: bool) -> None:
        """Fault injection: flip the port's carrier state (LSC event).

        Updates the software-visible link status, counts the transition,
        emits a ``fault`` trace record, and wakes anything parked on
        :attr:`link_signal` (monitors annotate the gap).  The wire-level
        consequence (frames lost while the carrier is down) is driven by
        the injector through :attr:`Wire.carrier_up` on the attached wires.
        """
        if up == self.link_up:
            return
        self.link_up = up
        self.link_changes += 1
        tracer = self.loop.tracer
        if tracer is not None:
            tracer.emit("fault", "link_up" if up else "link_down",
                        port=self.port_id, changes=self.link_changes)
        signal = self.link_signal
        if signal._waiters:
            signal.trigger()
        if up:
            # Coming back up: queued descriptors may be sendable again.
            self._mac_kick()

    def has_pending_tx(self) -> bool:
        return (self._mac_busy or bool(self._fifo)
                or any(q.ring for q in self.tx_queues))

    # -- observability -----------------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Publish this port's statistics registers under ``nic<N>.*``.

        Pull-based: every metric is a reader over counters the port
        already maintains, so registration adds nothing to the transmit
        or receive paths (``repro.metrics`` design contract).
        """
        base = f"nic{self.port_id}"
        tx = registry.counter(f"{base}.tx.packets",
                              lambda: self.tx_packets,
                              help="frames transmitted onto the wire")
        rx = registry.counter(f"{base}.rx.packets",
                              lambda: self.rx_packets,
                              help="frames accepted into rx rings")
        registry.rate(f"{base}.tx.pps", tx,
                      help="tx rate between snapshots (sim time)")
        registry.rate(f"{base}.rx.pps", rx,
                      help="rx rate between snapshots (sim time)")
        registry.counter(f"{base}.tx.bytes", lambda: self.tx_bytes)
        registry.counter(f"{base}.rx.bytes", lambda: self.rx_bytes)
        registry.counter(f"{base}.rx.crc_errors",
                         lambda: self.rx_crc_errors,
                         help="frames dropped for bad FCS")
        registry.counter(f"{base}.rx.missed", lambda: self.rx_missed,
                         help="frames lost to full rx rings")
        registry.gauge(f"{base}.tx.ring", lambda: sum(
            len(q.ring) for q in self.tx_queues),
            help="descriptors queued across tx rings")
        registry.gauge(f"{base}.rx.ring", lambda: sum(
            len(q.ring) for q in self.rx_queues),
            help="frames waiting across rx rings")
        registry.gauge(f"{base}.fifo", lambda: len(self._fifo),
                       help="frames staged in the MAC fifo")
        registry.gauge(f"{base}.link_up", lambda: 1 if self.link_up else 0)
        registry.counter(f"{base}.link_changes", lambda: self.link_changes,
                         help="carrier transitions (LSC events)")

    # -- transmit path -----------------------------------------------------------

    def _pick_queue(self) -> Optional[TxQueueSim]:
        """Round-robin over queues that are non-empty and rate-eligible."""
        queues = self.tx_queues
        n = len(queues)
        now = self.loop.now_ps
        start = self._rr_next
        for i in range(n):
            idx = (start + i) % n
            queue = queues[idx]
            if queue.ring and not queue.stalled and queue.next_allowed_ps <= now:
                self._rr_next = (idx + 1) % n
                return queue
        return None

    def _earliest_pending_ps(self) -> Optional[int]:
        earliest = None
        for q in self.tx_queues:
            if q.ring and not q.stalled:
                t = q.next_allowed_ps
                if earliest is None or t < earliest:
                    earliest = t
        return earliest

    def _fetch_from_ring(self, queue: TxQueueSim, tracer) -> SimFrame:
        """DMA one descriptor out of a ring: recycle + wake the producer.

        ``tracer`` is passed in by the caller (hoisted out of per-frame
        loops) so the disabled case costs a single ``is not None`` test.
        Parked producers are woken in batches of ``space_wake_threshold``
        freed slots (DPDK's ``tx_free_thresh``), not once per descriptor.
        """
        frame = queue.ring.popleft()
        if tracer is not None:
            tracer.emit("desc", "desc_fetch", port=self.port_id,
                        queue=queue.index, frame=tracer.frame_id(frame),
                        size=frame.size)
        dp = self.dataplane
        if dp is not None:
            enq = frame.meta.get("dp_enq_ps")
            if enq is not None:
                dp.txq[queue.index].observe(
                    (self.loop.now_ps - enq) / 1000.0)
        recycle = frame.recycle
        if recycle is not None:
            # The NIC has fetched the packet: DPDK's transmit function can
            # recycle the buffer into its mempool (Section 4.2).
            frame.recycle = None
            recycle()
        else:
            recycle = frame.meta.pop("recycle", None)
            if recycle is not None:
                recycle()
        signal = queue.space_signal
        if signal._waiters:
            ring_len = len(queue.ring)
            if ring_len == 0 or (
                queue.ring_size - ring_len >= queue.space_wake_threshold
            ):
                pend = queue.pending_send
                if pend is not None:
                    # Release a tier-deferred producer exactly at the
                    # instant the ordinary sawtooth would wake it.
                    pend.defer = False
                signal.trigger()
        return frame

    def _prefetch(self) -> None:
        """Fill the on-chip FIFO from unpaced queues (Section 3.2).

        Rate-limited queues are fetched on their pacing schedule instead,
        so hardware rate control timing is unaffected.
        """
        queues = self.tx_queues
        n = len(queues)
        fifo = self._fifo
        fifo_cap = self.chip.tx_fifo_bytes
        tracer = self.loop.tracer
        # NOTE: ``_fifo_bytes`` must be updated through self: the space
        # signal inside _fetch_from_ring can synchronously resume a task
        # whose enqueue->kick path pops the FIFO reentrantly (the ring is
        # re-read each iteration for the same reason).
        if n == 1:
            queue = queues[0]
            if queue.rate_bps:
                return
            ring = queue.ring
            while ring and self._fifo_bytes < fifo_cap:
                frame = self._fetch_from_ring(queue, tracer)
                fifo.append((frame, queue))
                self._fifo_bytes += frame.size
            return
        progress = True
        while progress and self._fifo_bytes < fifo_cap:
            progress = False
            for i in range(n):
                if self._fifo_bytes >= fifo_cap:
                    break
                queue = queues[i]
                if queue.rate_bps or not queue.ring:
                    continue
                frame = self._fetch_from_ring(queue, tracer)
                fifo.append((frame, queue))
                self._fifo_bytes += frame.size
                progress = True

    def _mac_done(self) -> None:
        """End of a frame's MAC occupancy: free the MAC, send the next."""
        self._mac_busy = False
        self._mac_kick()

    def _mac_kick(self) -> None:
        """Advance the MAC: send the next eligible frame, if any.

        The descriptor DMA (prefetch) runs on every kick — even while the
        MAC is serializing — so the FIFO fills in the background; the
        guard prevents re-entrant prefetching when a space signal resumes
        a task that immediately enqueues more frames.
        """
        if not self._prefetching and self._fifo_bytes < self.chip.tx_fifo_bytes:
            # Only unpaced rings prefetch: a kick with none holding frames
            # (the paced-ring kick) skips the DMA pass.
            for queue in self.tx_queues:
                if queue.ring and not queue.rate_bps:
                    self._prefetching = True
                    try:
                        self._prefetch()
                    finally:
                        self._prefetching = False
                    break
        if self._mac_busy:
            return
        # Mark the MAC busy *before* waking software: space signals can
        # synchronously resume a task that immediately enqueues and kicks.
        self._mac_busy = True
        # The frame the MAC transmits next: FIFO first, then paced rings.
        fifo = self._fifo
        if fifo:
            frame, queue = fifo.popleft()
            self._fifo_bytes -= frame.size
        else:
            queue = self._pick_queue()
            if queue is None:
                self._mac_busy = False
                nxt = self._earliest_pending_ps()
                if nxt is not None and (
                    self._mac_wakeup is None or self._mac_wakeup.cancelled
                ):
                    now = self.loop.now_ps
                    self._mac_wakeup = self.loop.schedule_at(
                        nxt if nxt > now else now, self._mac_kick
                    )
                return
            frame = self._fetch_from_ring(queue, self.loop.tracer)
        if self._mac_wakeup is not None:
            self._mac_wakeup.cancel()
            self._mac_wakeup = None
        loop = self.loop
        now = loop.now_ps
        size = frame.size
        mac_time = self.card.effective_frame_time_ps(frame, self.speed_bps)
        if self.dma_slowdown != 1.0:
            mac_time = round(mac_time * self.dma_slowdown)
        # Timestamp late in the transmit path (Section 6: as the frame hits
        # the wire), if the descriptor asked for it and the register is free.
        if frame.meta.get("timestamp") and self.chip.hw_timestamping and frame.is_ptp():
            tracer = loop.tracer
            if self._tx_timestamp is None:
                self._tx_timestamp = self.clock.timestamp_ns(now)
                self._tx_timestamp_seq = frame.ptp_sequence()
                if tracer is not None:
                    tracer.emit("tstamp", "tx_tstamp_latch", port=self.port_id,
                                frame=tracer.frame_id(frame),
                                ns=self._tx_timestamp,
                                ptp_seq=self._tx_timestamp_seq)
            else:
                self.timestamp_missed += 1
                if tracer is not None:
                    tracer.emit("tstamp", "tstamp_missed", port=self.port_id,
                                side="tx", frame=tracer.frame_id(frame))
        frame.meta["tx_start_ps"] = now
        if self.tx_observers:
            for observer in self.tx_observers:
                observer(frame, now)
        wire = self.wire
        if wire is not None:
            wire.transmit(frame, size, now)
        elif frame.pool is not None:
            # Transmit into the void: nothing can reach the frame again.
            frame.pool.release(frame)
        self.tx_packets += 1
        self.tx_bytes += size
        if queue is not None:
            queue.tx_packets += 1
            queue.tx_bytes += size
            # Inlined unpaced case of _advance_rate_limiter (the hot path).
            if queue.rate_bps <= 0:
                queue.next_allowed_ps = now
            else:
                queue._advance_rate_limiter(now, frame)
        end_ps = now + mac_time
        if self.fast_forward and (
            self._fifo or (queue is not None and queue.ring)
        ):
            end_ps = self._fast_forward(end_ps)
        loop.schedule_at(end_ps, self._mac_done)

    def _fast_forward(self, start_ps: int) -> int:
        """Route the MAC's pending work through the batch execution tier.

        Opt-in via :attr:`fast_forward`.  The tier (``repro.batch``)
        detects homogeneous event trains — FIFO drains, single-queue
        prefetch steady states, hardware-paced ring trains — and executes
        them arithmetically, skipping the per-frame ``_mac_done`` + wire
        delivery events while producing bit-identical state: each frame is
        delivered through the sink port's real ``receive`` with the exact
        arrival stamp the event path would have used.  Detection rules and
        fallback reasons live in :mod:`repro.batch.detector`; the
        equivalence claim is enforced by ``tests/test_batch_equivalence.py``
        and cross-validated in
        ``benchmarks/bench_validation_event_vs_vectorized.py``.

        The tier is shared per event loop (``loop.batch``); a port driven
        outside :class:`~repro.core.MoonGenEnv` lazily installs one.
        Returns the MAC-free time: advanced past every batched frame, or
        ``start_ps`` unchanged when the tier fell back.
        """
        loop = self.loop
        tier = loop.batch
        if tier is None:
            from repro.batch import BatchTier

            tier = loop.batch = BatchTier()
        return tier.execute(self, start_ps)

    def batch_ready_rx(self) -> bool:
        """True when a batch may deliver into this port synchronously.

        Software parked on an rx ``packet_signal`` must wake at exact
        per-frame instants, so any waiter pins the sender to the event
        path (``repro.batch`` detection rule).
        """
        for rxq in self.rx_queues:
            if rxq.packet_signal.has_waiters:
                return False
        return True

    # -- receive path --------------------------------------------------------------

    def receive(self, frame: SimFrame, arrival_ps: int) -> None:
        """Wire-side delivery into this port (the wire's sink callback)."""
        tracer = self.loop.tracer
        if not frame.fcs_ok:
            # Dropped before queue assignment; packet processing logic is
            # unaffected — the property Section 8 relies on.
            self.rx_crc_errors += 1
            if tracer is not None:
                tracer.emit("drop", "drop_fcs", port=self.port_id,
                            frame=tracer.frame_id(frame), size=frame.size)
            if frame.pool is not None:
                frame.pool.release(frame)
            return
        dp = self.dataplane
        if dp is not None:
            # Inter-arrival between FCS-valid frames only: bad-CRC fillers
            # are pacing artifacts, not traffic (Section 8's premise).
            last = dp.rx_last_ps
            if last >= 0:
                dp.rx_interarrival.observe((arrival_ps - last) / 1000.0)
            dp.rx_last_ps = arrival_ps
        if self.chip.hw_timestamping:
            # Timestamps are taken early in the receive path, referenced to
            # the start of the frame (the wire delivers at frame end).  The
            # back-reference is only computed for frames that are actually
            # stamped — non-PTP traffic skips it.
            if self.chip.timestamp_all_rx:
                stamp_ps = arrival_ps - units.frame_time_ps(frame.size, self.speed_bps)
                frame.meta["rx_timestamp_ns"] = self.clock.timestamp_ns(stamp_ps)
            elif frame.is_ptp():
                if self._rx_timestamp is None:
                    stamp_ps = arrival_ps - units.frame_time_ps(frame.size, self.speed_bps)
                    self._rx_timestamp = self.clock.timestamp_ns(stamp_ps)
                    self._rx_timestamp_seq = frame.ptp_sequence()
                    if tracer is not None:
                        tracer.emit("tstamp", "rx_tstamp_latch",
                                    port=self.port_id,
                                    frame=tracer.frame_id(frame),
                                    ns=self._rx_timestamp,
                                    ptp_seq=self._rx_timestamp_seq)
                else:
                    self.timestamp_missed += 1
                    if tracer is not None:
                        tracer.emit("tstamp", "tstamp_missed",
                                    port=self.port_id, side="rx",
                                    frame=tracer.frame_id(frame))
        queue_idx = 0
        if self.rx_filter is not None:
            queue_idx = self.rx_filter(frame) % len(self.rx_queues)
        self.rx_packets += 1
        self.rx_bytes += frame.size
        if not self.rx_queues[queue_idx].deliver(frame):
            self.rx_missed += 1
            if tracer is not None:
                tracer.emit("drop", "drop_rx_ring", port=self.port_id,
                            queue=queue_idx, frame=tracer.frame_id(frame))
            if frame.pool is not None:
                frame.pool.release(frame)

    # -- timestamp registers ----------------------------------------------------------

    def read_tx_timestamp(self) -> Optional[tuple]:
        """Read and clear the tx timestamp register: (value_ns, ptp_seq)."""
        if self._tx_timestamp is None:
            return None
        value = (self._tx_timestamp, self._tx_timestamp_seq)
        self._tx_timestamp = None
        self._tx_timestamp_seq = None
        return value

    def read_rx_timestamp(self) -> Optional[tuple]:
        """Read and clear the rx timestamp register: (value_ns, ptp_seq)."""
        if self._rx_timestamp is None:
            return None
        value = (self._rx_timestamp, self._rx_timestamp_seq)
        self._rx_timestamp = None
        self._rx_timestamp_seq = None
        return value
