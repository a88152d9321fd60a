"""Memory pools and batch buffer arrays.

Reproduces the DPDK memory model the paper explains in Section 4.2:

* a :class:`MemPool` owns a fixed set of packet buffers; a user-supplied
  ``fill`` callback pre-initializes each buffer once so the transmit loop
  only touches fields that change per packet;
* a :class:`BufArray` is a batch of buffers processed together — batching is
  the key high-speed technique (Section 4.2, [6, 23]);
* buffers handed to ``queue.send()`` are owned by the NIC until it fetches
  them; they are recycled back into the pool afterwards without erasing
  their contents.  Scripts must allocate fresh buffers every iteration
  instead of re-using the batch (the asynchronous push-pull model).

Cycle accounting: cost-bearing operations (checksum offloads, declared
per-packet modifications) accumulate in the BufArray's *cycle ledger*, which
``queue.send()`` charges to the simulated core along with the per-packet IO
cost.  Mutating packet contents is ordinary Python — the ledger is how the
timing model learns what the script did, mirroring how the paper decomposes
script cost into operations (Section 5.6).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterator, List, Optional

from repro.errors import ConfigurationError, PacketError, QueueError
from repro.nicsim.eventloop import Signal
from repro.packet.packet import PacketData

DEFAULT_POOL_SIZE = 4096
#: MoonGen's default bufArray batch size.
DEFAULT_BATCH_SIZE = 63


class PacketBuffer(PacketData):
    """One packet buffer of a memory pool (a DPDK mbuf).

    The packet data itself — so the stack accessors (``buf.udp_packet``,
    ``buf.size``, ...) are :class:`PacketData`'s — plus pool bookkeeping and
    per-buffer offload flags (the DMA descriptor bits the offload calls
    set).  ``buf.pkt`` is the buffer itself, for code written against the
    wrapped-``PacketData`` shape; one object per buffer keeps a 4096-buffer
    pool cheap to build and to collect.
    """

    __slots__ = (
        "pool", "pkt", "in_pool", "offload_ip", "offload_l4",
        "timestamp_flag", "corrupt_fcs",
    )

    def __init__(self, pool: "MemPool", capacity: int) -> None:
        PacketData.__init__(self, capacity, capacity)
        self.pool = pool
        self.pkt = self
        self.in_pool = True
        self.offload_ip = False
        self.offload_l4 = False
        self.timestamp_flag = False
        self.corrupt_fcs = False

    def reset_flags(self) -> None:
        self.offload_ip = False
        self.offload_l4 = False
        self.timestamp_flag = False
        self.corrupt_fcs = False

    def recycle(self) -> None:
        """Return this buffer to its pool (the NIC's descriptor-fetch hook)."""
        self.pool.give_back(self)

    #: The buffer is its own descriptor-fetch hook: the transmit path puts
    #: it in ``SimFrame.recycle``, which the NIC calls.  No bound method is
    #: built per packet, nor kept per buffer.
    __call__ = recycle


class MemPool:
    """A pool of pre-initialized packet buffers."""

    def __init__(
        self,
        n_buffers: int = DEFAULT_POOL_SIZE,
        buf_capacity: int = 2048,
        fill: Optional[Callable[[PacketBuffer], None]] = None,
    ) -> None:
        if n_buffers <= 0:
            raise ConfigurationError(f"pool needs at least one buffer: {n_buffers}")
        self.buf_capacity = buf_capacity
        self._free: Deque[PacketBuffer] = deque()
        self.free_signal = Signal()
        self.n_buffers = n_buffers
        if buf_capacity < 0:
            raise PacketError(f"negative packet size: {buf_capacity}")
        # PacketBuffer.__init__ inlined: a pool build is thousands of
        # buffers.  ``fill`` runs once per buffer, in index order; the
        # final resize skips the size setter's bounds check unless the
        # fill swapped the buffer's data or its ``pkt``.
        new = PacketBuffer.__new__
        append = self._free.append
        for _ in range(n_buffers):
            buf = new(PacketBuffer)
            buf.data = bytearray(buf_capacity)
            buf._size = buf_capacity
            buf.pool = self
            buf.pkt = buf
            buf.in_pool = True
            buf.offload_ip = False
            buf.offload_l4 = False
            buf.timestamp_flag = False
            buf.corrupt_fcs = False
            if fill is not None:
                fill(buf)
                pkt = buf.pkt
                if pkt is not buf or len(buf.data) < buf_capacity:
                    pkt.size = buf_capacity
                else:
                    buf._size = buf_capacity
            append(buf)

    @property
    def available(self) -> int:
        return len(self._free)

    def take(self, n: int, size: int) -> List[PacketBuffer]:
        """Pop up to ``n`` buffers, set their frame size; may return fewer."""
        if size < 0 or size > self.buf_capacity:
            raise QueueError(
                f"frame size {size} out of range for buffer capacity "
                f"{self.buf_capacity}"
            )
        out = []
        free = self._free
        pop = free.popleft
        append = out.append
        k = 0
        while free and k < n:
            buf = pop()
            buf.in_pool = False
            # Inlined reset_flags() + the pkt.size setter (bounds already
            # checked once above): this loop runs once per packet sent.
            buf.offload_ip = False
            buf.offload_l4 = False
            buf.timestamp_flag = False
            buf.corrupt_fcs = False
            buf.pkt._size = size
            append(buf)
            k += 1
        return out

    def give_back(self, buf: PacketBuffer) -> None:
        """Return a buffer to the pool (contents are *not* erased)."""
        if buf.in_pool:
            raise QueueError("double free of a packet buffer")
        buf.in_pool = True
        self._free.append(buf)
        signal = self.free_signal
        if signal._waiters:
            signal.trigger()

    def buf_array(self, size: int = DEFAULT_BATCH_SIZE) -> "BufArray":
        """Create a batch array bound to this pool."""
        return BufArray(self, size)


class BufArray:
    """A batch of packet buffers processed together.

    Iterating yields the currently-allocated buffers.  The cycle ledger
    accumulates the cost of declared per-packet work; see the module
    docstring.
    """

    def __init__(self, pool: Optional[MemPool], size: int = DEFAULT_BATCH_SIZE) -> None:
        if size <= 0:
            raise ConfigurationError(f"batch size must be positive: {size}")
        self.pool = pool
        self.size = size
        self.bufs: List[PacketBuffer] = []
        # Ledger entries: (kind, arg) per packet in the batch.
        self._ledger: List[tuple] = []

    def __len__(self) -> int:
        return len(self.bufs)

    def __iter__(self) -> Iterator[PacketBuffer]:
        return iter(self.bufs)

    def __getitem__(self, index: int) -> PacketBuffer:
        return self.bufs[index]

    # -- allocation -----------------------------------------------------------

    def alloc(self, size: int) -> "BufArray":
        """Fill the array with fresh buffers of ``size`` bytes (excl. FCS).

        Raises :class:`QueueError` if the pool cannot supply a full batch.
        With the default sizing (pool 4096, ring 512) this cannot happen in a
        well-formed transmit loop: buffers return to the pool as the NIC
        fetches them, long before 4096 are in flight.
        """
        if self.pool is None:
            raise ConfigurationError("bufArray without a pool cannot alloc")
        if self.bufs:
            raise QueueError(
                "bufArray still owns buffers; they are recycled by send() — "
                "alloc() may only be called on an empty array"
            )
        self._ledger.clear()
        self.bufs = self.pool.take(self.size, size)
        if len(self.bufs) < self.size:
            for buf in self.bufs:
                self.pool.give_back(buf)
            self.bufs = []
            raise QueueError(
                f"mempool exhausted: batch of {self.size} requested, "
                f"{self.pool.available} buffers free — size the pool larger "
                f"than ring + in-flight batches"
            )
        return self

    def adopt(self, bufs: List[PacketBuffer]) -> None:
        """Take ownership of externally supplied buffers (rx path)."""
        self.bufs = list(bufs)
        self._ledger.clear()

    def release(self) -> List[PacketBuffer]:
        """Hand the buffers over (to a send op); the array becomes empty."""
        bufs, self.bufs = self.bufs, []
        return bufs

    def free_all(self) -> None:
        """Return all buffers to their pool (rx path's ``bufs:freeAll()``)."""
        for buf in self.bufs:
            buf.pool.give_back(buf)
        self.bufs = []

    # -- offloads (set DMA descriptor bits; Section 5.6.1 costs) --------------

    def offload_ip_checksums(self) -> None:
        """Enable IP header checksum offloading for the batch."""
        for buf in self.bufs:
            buf.offload_ip = True
        self._ledger.append(("offload_ip", None))

    def offload_udp_checksums(self) -> None:
        """Enable UDP checksum offloading.

        Also computes the IP pseudo-header checksum in software, as the
        paper notes the X540 cannot (the cost table includes this).
        """
        for buf in self.bufs:
            buf.offload_ip = True
            buf.offload_l4 = True
        self._ledger.append(("offload_udp", None))

    def offload_tcp_checksums(self) -> None:
        """Enable TCP checksum offloading (incl. pseudo-header software part)."""
        for buf in self.bufs:
            buf.offload_ip = True
            buf.offload_l4 = True
        self._ledger.append(("offload_tcp", None))

    def calculate_udp_checksums_software(self) -> None:
        """Compute UDP (and IP) checksums on the CPU instead of offloading.

        The expensive alternative to :meth:`offload_udp_checksums`
        (Section 5.6.1 notes offloading is cheaper); checksums are written
        into the buffers and the ledger charges the software cost.
        """
        total_bytes = 0
        for buf in self.bufs:
            view = buf.pkt.udp_packet
            view.calculate_ip_checksum()
            view.calculate_udp_checksum()
            total_bytes += buf.pkt.size - 14
        if self.bufs:
            self._ledger.append(("sw_checksum", total_bytes // len(self.bufs)))

    def calculate_ip_checksums_software(self) -> None:
        """Compute only the IP header checksum on the CPU."""
        for buf in self.bufs:
            buf.pkt.ip_packet.calculate_ip_checksum()
        if self.bufs:
            self._ledger.append(("sw_checksum", 20))

    # -- declared per-packet work ----------------------------------------------

    def charge_modify(self, cachelines: int = 1) -> None:
        """Declare a constant-field write per packet (Table 1 cost)."""
        self._ledger.append(("modify", max(1, int(cachelines))))

    def charge_random_fields(self, n_fields: int) -> None:
        """Declare ``n_fields`` randomized header fields per packet (Table 2)."""
        self._ledger.append(("random", int(n_fields)))

    def charge_counter_fields(self, n_fields: int) -> None:
        """Declare ``n_fields`` wrapping-counter fields per packet (Table 2)."""
        self._ledger.append(("counter", int(n_fields)))

    def drain_ledger(self) -> List[tuple]:
        entries, self._ledger = self._ledger, []
        return entries
