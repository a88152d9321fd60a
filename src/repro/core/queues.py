"""Transmit and receive queue API.

Thin wrappers over the simulated hardware queues that produce ops for the
task scheduler and expose MoonGen's configuration calls (``setRate``).
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro import units
from repro.core.memory import PacketBuffer
from repro.core.ops import RecvOp, SendOp
from repro.errors import RateControlError
from repro.nicsim.nic import RxQueueSim, SimFrame, TxQueueSim

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.device import Device
    from repro.core.memory import BufArray


class _RxPool:
    """Stand-in pool for received buffers: frees are no-ops.

    On real hardware, rx buffers belong to the driver's pool; here a received
    frame is an immutable snapshot, so ``freeAll`` just drops references.
    """

    def give_back(self, buf: "RxPacket") -> None:
        buf.in_pool = True


_RX_POOL = _RxPool()


class RxPacket(PacketBuffer):
    """A received packet: buffer view over a frame snapshot plus metadata."""

    __slots__ = ("frame", "rx_timestamp_ns")

    def __init__(self, frame: SimFrame) -> None:
        # Deliberately skip PacketBuffer.__init__ (no pool allocation) and
        # PacketData.__init__: the snapshot is the frame's bytes, padded
        # to a 64-byte minimum capacity.
        data = bytearray(frame.data)
        size = len(data)
        if size < 64:
            data.extend(bytes(64 - size))
        self.data = data
        self._size = size
        self.pool = _RX_POOL
        self.pkt = self
        self.in_pool = False
        self.offload_ip = False
        self.offload_l4 = False
        self.timestamp_flag = False
        self.frame = frame
        #: 82580-style per-packet rx timestamp, if the chip provides one.
        self.rx_timestamp_ns = frame.meta.get("rx_timestamp_ns")


class TxQueue:
    """A transmit queue of a configured device."""

    def __init__(self, device: "Device", index: int, sim: TxQueueSim) -> None:
        self.device = device
        self.index = index
        self.sim = sim

    def __repr__(self) -> str:
        return f"TxQueue(port={self.device.port_id}, queue={self.index})"

    # -- configuration ------------------------------------------------------

    def set_rate(self, mbps: float) -> None:
        """Configure hardware rate control to ``mbps`` of wire bandwidth.

        Section 7.5: above ~9 Mpps the hardware limiter of the 10 GbE chips
        behaves unpredictably; a :class:`RateControlError` flags the regime
        so callers apply the paper's two-queue workaround instead of getting
        silently-wrong traffic.
        """
        implied_pps = mbps * 1e6 / (units.wire_length(units.MIN_FRAME_SIZE) * 8)
        if implied_pps > self.sim.port.chip.hw_rate_max_pps:
            raise RateControlError(
                f"{mbps} Mbit/s may exceed {self.sim.port.chip.name}'s reliable "
                f"rate-control range (~9 Mpps); split the stream over two "
                f"queues (Section 7.5 workaround) or use software rate control"
            )
        self.sim.set_rate(mbps)

    def set_rate_pps(self, pps: float, frame_size: int = units.MIN_FRAME_SIZE) -> None:
        """Configure the limiter for a packet rate at a fixed frame size."""
        if pps > self.sim.port.chip.hw_rate_max_pps:
            raise RateControlError(
                f"{pps / 1e6:.2f} Mpps exceeds the reliable hardware "
                f"rate-control range (Section 7.5)"
            )
        self.sim.set_rate_pps(pps, frame_size)

    @property
    def rate_mbps(self) -> float:
        return self.sim.rate_bps / 1e6

    # -- data path ------------------------------------------------------------

    def send(self, bufs: "BufArray") -> SendOp:
        """Transmit op for the batch (yield it from a slave task)."""
        return SendOp(self, bufs)

    def send_with_timestamp(self, bufs: "BufArray") -> SendOp:
        """Transmit op that requests a hardware tx timestamp for the batch.

        Only one timestamp register exists; scripts send a single probe at a
        time (Section 6.4).
        """
        for buf in bufs:
            buf.timestamp_flag = True
        return SendOp(self, bufs)

    # -- stats -----------------------------------------------------------------

    @property
    def tx_packets(self) -> int:
        return self.sim.tx_packets

    @property
    def tx_bytes(self) -> int:
        return self.sim.tx_bytes


class RxQueue:
    """A receive queue of a configured device."""

    def __init__(self, device: "Device", index: int, sim: RxQueueSim) -> None:
        self.device = device
        self.index = index
        self.sim = sim

    def __repr__(self) -> str:
        return f"RxQueue(port={self.device.port_id}, queue={self.index})"

    def recv(self, bufs: "BufArray", timeout_ns: Optional[float] = None) -> RecvOp:
        """Receive op: blocks until ≥1 packet arrives (or timeout); returns
        the number of packets placed into ``bufs``."""
        return RecvOp(self, bufs, timeout_ns)

    def try_fetch(self, max_frames: int) -> List[RxPacket]:
        """Non-blocking poll used by synchronous code and tests."""
        return [RxPacket(f) for f in self.sim.fetch(max_frames)]

    def drain(self, max_frames: int) -> int:
        """Discard up to ``max_frames`` received frames; returns how many.

        :meth:`try_fetch` for a caller that never reads the packets: the
        same ring fetch, without building an :class:`RxPacket` snapshot
        per frame.
        """
        return len(self.sim.fetch(max_frames))

    @property
    def rx_packets(self) -> int:
        return self.sim.rx_packets

    @property
    def rx_bytes(self) -> int:
        return self.sim.rx_bytes
