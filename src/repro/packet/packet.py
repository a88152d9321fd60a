"""Packet stacks with MoonGen-style ``fill()`` semantics.

A :class:`PacketData` is a raw buffer (the payload part of a DPDK mbuf in
the original).  Stack views such as :class:`Udp4Packet` interpret the buffer
as a protocol stack and expose headers as attributes::

    pkt = PacketData(60)
    p = pkt.udp_packet
    p.fill(eth_dst="10:11:12:13:14:15", ip_dst="192.168.1.1", udp_dst=42)
    p.ip.src = parse_ip_address("10.0.0.1") + 3

Sizes follow DPDK conventions: ``PacketData.size`` excludes the 4-byte FCS,
which the (simulated) NIC appends on transmission.  The paper's 64 B
minimum-sized frame therefore corresponds to a 60 B buffer.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Union

from repro.errors import PacketError
from repro.packet.address import Ip4Address, Ip6Address, MacAddress
from repro.packet.arp import ArpHeader, ArpOp
from repro.packet.checksum import (
    internet_checksum,
    pseudo_header_sum_v4,
    pseudo_header_sum_v6,
)
from repro.packet.esp import EspHeader
from repro.packet.ethernet import EtherType, EthernetHeader
from repro.packet.icmp import IcmpHeader, IcmpType
from repro.packet.ip4 import Ip4Header, IpProtocol
from repro.packet.ip6 import Ip6Header
from repro.packet.ptp import PTP_UDP_PORT, PtpHeader
from repro.packet.tcp import TcpHeader
from repro.packet.udp import UdpHeader

#: Size of an Ethernet frame buffer for a minimum-sized (64 B) frame:
#: the FCS is appended by the NIC and not part of the buffer.
MIN_BUFFER_SIZE = 60


class PacketData:
    """A raw packet buffer: the data area of a packet buffer.

    ``size`` is the current frame length excluding FCS.  The underlying
    ``bytearray`` may be larger; resizing within capacity does not copy.
    """

    __slots__ = ("data", "_size")

    def __init__(self, size: int = MIN_BUFFER_SIZE, capacity: Optional[int] = None):
        if size < 0:
            raise PacketError(f"negative packet size: {size}")
        capacity = max(size, capacity if capacity is not None else 2048)
        self.data = bytearray(capacity)
        self._size = size

    @classmethod
    def wrap(cls, data: bytearray, size: Optional[int] = None) -> "PacketData":
        """View an existing bytearray as a packet without copying."""
        pkt = cls.__new__(cls)
        pkt.data = data
        pkt._size = len(data) if size is None else size
        if pkt._size > len(data):
            raise PacketError(f"size {size} exceeds buffer of {len(data)} bytes")
        return pkt

    @property
    def size(self) -> int:
        """Current frame length in bytes (excluding FCS)."""
        return self._size

    @size.setter
    def size(self, value: int) -> None:
        if value < 0 or value > len(self.data):
            raise PacketError(
                f"size {value} out of range for capacity {len(self.data)}"
            )
        self._size = value

    def bytes(self) -> bytes:
        """The frame contents (excluding FCS)."""
        return bytes(self.data[: self._size])

    def fill_payload(self, pattern: bytes, offset: int) -> None:
        """Repeat ``pattern`` from ``offset`` to the end of the frame."""
        if not pattern:
            raise PacketError("empty payload pattern")
        n = self._size - offset
        if n <= 0:
            return
        reps = -(-n // len(pattern))
        self.data[offset: self._size] = (pattern * reps)[:n]

    # -- stack accessors, mirroring MoonGen's buf:getXPacket() ---------------

    @property
    def eth_packet(self) -> "EthPacket":
        return EthPacket(self)

    @property
    def arp_packet(self) -> "ArpPacket":
        return ArpPacket(self)

    @property
    def ip_packet(self) -> "Ip4Packet":
        return Ip4Packet(self)

    @property
    def ip6_packet(self) -> "Ip6Packet":
        return Ip6Packet(self)

    @property
    def udp_packet(self) -> "Udp4Packet":
        return Udp4Packet(self)

    @property
    def udp6_packet(self) -> "Udp6Packet":
        return Udp6Packet(self)

    @property
    def tcp_packet(self) -> "Tcp4Packet":
        return Tcp4Packet(self)

    @property
    def icmp_packet(self) -> "Icmp4Packet":
        return Icmp4Packet(self)

    @property
    def ptp_packet(self) -> "PtpPacket":
        return PtpPacket(self)

    @property
    def udp_ptp_packet(self) -> "UdpPtpPacket":
        return UdpPtpPacket(self)

    @property
    def esp_packet(self) -> "EspPacket":
        return EspPacket(self)

    def classify(self) -> str:
        """Best-effort classification of the buffer's protocol stack.

        Returns one of ``"arp"``, ``"ptp"``, ``"udp4"``, ``"udp6"``,
        ``"tcp4"``, ``"icmp4"``, ``"ip4"``, ``"ip6"``, or ``"eth"``.
        """
        if self._size < EthernetHeader.SIZE:
            return "raw"
        eth = EthernetHeader(self.data)
        if eth.ether_type == EtherType.ARP:
            return "arp"
        if eth.ether_type == EtherType.PTP:
            return "ptp"
        if eth.ether_type == EtherType.IP4:
            if self._size < EthernetHeader.SIZE + Ip4Header.SIZE:
                return "eth"
            proto = Ip4Header(self.data, EthernetHeader.SIZE).protocol
            return {
                IpProtocol.UDP: "udp4",
                IpProtocol.TCP: "tcp4",
                IpProtocol.ICMP: "icmp4",
            }.get(proto, "ip4")
        if eth.ether_type == EtherType.IP6:
            if self._size < EthernetHeader.SIZE + Ip6Header.SIZE:
                return "eth"
            proto = Ip6Header(self.data, EthernetHeader.SIZE).next_header
            return {IpProtocol.UDP: "udp6"}.get(proto, "ip6")
        return "eth"


#: Fill write-sets, keyed by ``(stack class, frame length, overrides)``
#: where ``overrides`` is ``((name, type(value), value), ...)`` in call
#: order (see :func:`_fill_key`).  Value is ``(runs, max_end)`` with
#: ``runs`` a list of ``(slice, bytes)`` writes, ``None`` when the fill is
#: not replayable (read-modify-write fields, a setter that raises), or
#: :data:`_SEEN_ONCE` for a key met once: the proof costs two fills, so
#: it runs on a key's second use and a stream of one-off fills (a scanner
#: writing a new address per packet) keeps the setter path's cost.
_FILL_RUNS: Dict[tuple, object] = {}
#: Entries before the cache is cleared; a mempool init needs one.
_FILL_RUNS_MAX = 256
_RUNS_UNSET = object()
_SEEN_ONCE = object()

#: Override value types a write-set may be keyed on: immutable, hashable,
#: and converted by the setters the same way every time.
_REPLAYABLE_TYPES = frozenset(
    (int, str, bytes, MacAddress, Ip4Address, Ip6Address)
)
#: A run of bytes both sentinel images agree on: written by the fill.
_WRITTEN = re.compile(b"\x00+")


def _fill_key(cls, size: int, overrides: Dict[str, object]) -> Optional[tuple]:
    """The write-set cache key of a fill, or ``None`` if a value is not
    one of :data:`_REPLAYABLE_TYPES` (it takes the setter path)."""
    items = []
    for name, value in overrides.items():
        kind = type(value)
        if kind not in _REPLAYABLE_TYPES:
            return None
        items.append((name, kind, value))
    return (cls, size, tuple(items))


def _fill_runs(key: tuple) -> Optional[tuple]:
    """The exact byte runs the fill described by ``key`` writes.

    Runs the fill twice on scratch buffers with opposite sentinel
    backgrounds (0x00 and 0xFF) and diffs the results: a byte equal in
    both runs was written (to that constant), a byte still matching both
    sentinels was untouched, and anything else means the fill read
    existing buffer state — not replayable, return ``None``.  A fill that
    raises (unknown field, bad value) is not replayable either, so the
    setter path raises the error.  Replaying the runs on a live buffer
    therefore writes exactly the bytes a real fill writes and leaves
    untouched bytes untouched.
    """
    cls, size, overrides = key
    cap = max(size, cls.MIN_SIZE, 64)
    images = []
    for sentinel in (0x00, 0xFF):
        data = bytearray(bytes((sentinel,)) * cap)
        try:
            view = cls(PacketData.wrap(data, size))
            view._set_defaults()
            setters = view._fill_setters()
            for name, _, value in overrides:
                setters[name](value)
            view._finalize_lengths()
        except Exception:
            return None
        if len(data) != cap:
            return None
        images.append(data)
    b0, b1 = images
    x0 = int.from_bytes(b0, "big")
    x = x0 ^ int.from_bytes(b1, "big")
    diff = x.to_bytes(cap, "big")
    # Untouched bytes differ as exactly 0x00 (first image) vs 0xFF.
    if diff.translate(None, b"\x00\xff") or x0 & x:
        return None
    runs = [
        (slice(m.start(), m.end()), bytes(b0[m.start():m.end()]))
        for m in _WRITTEN.finditer(diff)
    ]
    max_end = max((s.stop for s, _ in runs), default=0)
    return runs, max_end


class _StackView:
    """Base class for protocol stack views over a :class:`PacketData`."""

    __slots__ = ("pkt",)

    #: Minimum buffer size the stack needs; subclasses override.
    MIN_SIZE = EthernetHeader.SIZE

    def __init__(self, pkt: PacketData) -> None:
        if len(pkt.data) < self.MIN_SIZE:
            raise PacketError(
                f"{type(self).__name__} needs at least {self.MIN_SIZE} bytes, "
                f"buffer capacity is {len(pkt.data)}"
            )
        self.pkt = pkt

    @property
    def eth(self) -> EthernetHeader:
        return EthernetHeader(self.pkt.data, 0)

    def _set_length(self, pkt_length: int) -> None:
        """Adjust the buffer and all length fields for a new frame length."""
        self.pkt.size = pkt_length

    def fill(self, **kwargs: Union[int, str, bytes]) -> None:
        """Set defaults for all headers in the stack, then apply overrides.

        The keyword names mirror MoonGen's Lua fill API in snake_case:
        ``pkt_length``, ``eth_src``, ``eth_dst``, ``ip_src``, ``ip_dst``,
        ``udp_src``, ``udp_dst``, and so on.

        A fill whose override values are immutable (see
        :data:`_REPLAYABLE_TYPES`) — the mempool-init shape, thousands of
        identical calls per pool — replays a cached write-set instead of
        running the per-field setters; see :func:`_fill_runs`.
        """
        pkt_length = kwargs.pop("pkt_length", None)
        if pkt_length is not None:
            self._set_length(int(pkt_length))
        key = _fill_key(type(self), self.pkt._size, kwargs)
        if key is not None:
            cached = _FILL_RUNS.get(key, _RUNS_UNSET)
            if cached is _RUNS_UNSET:
                if len(_FILL_RUNS) >= _FILL_RUNS_MAX:
                    _FILL_RUNS.clear()
                _FILL_RUNS[key] = cached = _SEEN_ONCE
            elif cached is _SEEN_ONCE:
                _FILL_RUNS[key] = cached = _fill_runs(key)
            if cached is not None and cached is not _SEEN_ONCE:
                runs, max_end = cached
                data = self.pkt.data
                if max_end <= len(data):
                    for where, chunk in runs:
                        data[where] = chunk
                    return
        self._set_defaults()
        setters = self._fill_setters()
        for name, value in kwargs.items():
            setter = setters.get(name)
            if setter is None:
                raise TypeError(
                    f"unknown fill field {name!r} for {type(self).__name__}"
                )
            setter(value)
        self._finalize_lengths()

    def _set_defaults(self) -> None:
        raise NotImplementedError

    def _fill_setters(self) -> Dict[str, object]:
        raise NotImplementedError

    def _finalize_lengths(self) -> None:
        """Update length fields derived from the buffer size."""


class EthPacket(_StackView):
    """A raw Ethernet frame."""

    MIN_SIZE = EthernetHeader.SIZE

    def _set_defaults(self) -> None:
        pass

    def _fill_setters(self):
        eth = self.eth
        return {
            "eth_src": lambda v: setattr(eth, "src", v),
            "eth_dst": lambda v: setattr(eth, "dst", v),
            "eth_type": lambda v: setattr(eth, "ether_type", v),
        }

    @property
    def payload_offset(self) -> int:
        return EthernetHeader.SIZE


class ArpPacket(_StackView):
    """Ethernet + ARP."""

    MIN_SIZE = EthernetHeader.SIZE + ArpHeader.SIZE

    @property
    def arp(self) -> ArpHeader:
        return ArpHeader(self.pkt.data, EthernetHeader.SIZE)

    def _set_defaults(self) -> None:
        self.eth.ether_type = EtherType.ARP
        self.arp.set_defaults()

    def _fill_setters(self):
        eth, arp = self.eth, self.arp
        return {
            "eth_src": lambda v: setattr(eth, "src", v),
            "eth_dst": lambda v: setattr(eth, "dst", v),
            "arp_operation": lambda v: setattr(arp, "operation", v),
            "arp_hw_src": lambda v: setattr(arp, "sha", v),
            "arp_hw_dst": lambda v: setattr(arp, "tha", v),
            "arp_proto_src": lambda v: setattr(arp, "spa", v),
            "arp_proto_dst": lambda v: setattr(arp, "tpa", v),
        }


class Ip4Packet(_StackView):
    """Ethernet + IPv4."""

    MIN_SIZE = EthernetHeader.SIZE + Ip4Header.SIZE
    _IP_PROTOCOL: Optional[int] = None

    @property
    def ip(self) -> Ip4Header:
        return Ip4Header(self.pkt.data, EthernetHeader.SIZE)

    def _set_defaults(self) -> None:
        self.eth.ether_type = EtherType.IP4
        ip = self.ip
        ip.set_defaults()
        if self._IP_PROTOCOL is not None:
            ip.protocol = self._IP_PROTOCOL

    def _fill_setters(self):
        eth, ip = self.eth, self.ip
        return {
            "eth_src": lambda v: setattr(eth, "src", v),
            "eth_dst": lambda v: setattr(eth, "dst", v),
            "ip_src": lambda v: setattr(ip, "src", v),
            "ip_dst": lambda v: setattr(ip, "dst", v),
            "ip_tos": lambda v: setattr(ip, "tos", v),
            "ip_ttl": lambda v: setattr(ip, "ttl", v),
            "ip_id": lambda v: setattr(ip, "identification", v),
            "ip_protocol": lambda v: setattr(ip, "protocol", v),
        }

    def _finalize_lengths(self) -> None:
        self.ip.length = self.pkt.size - EthernetHeader.SIZE

    @property
    def l4_offset(self) -> int:
        return EthernetHeader.SIZE + self.ip.header_length()

    def calculate_ip_checksum(self) -> int:
        """Software IP header checksum (the offload does this on the NIC)."""
        return self.ip.calculate_checksum()

    def _l4_segment(self) -> bytes:
        return bytes(self.pkt.data[self.l4_offset: self.pkt.size])

    def _pseudo_sum(self) -> int:
        ip = self.ip
        return pseudo_header_sum_v4(
            int(ip.src), int(ip.dst), ip.protocol, self.pkt.size - self.l4_offset
        )


class Udp4Packet(Ip4Packet):
    """Ethernet + IPv4 + UDP, the workhorse of the example scripts."""

    MIN_SIZE = Ip4Packet.MIN_SIZE + UdpHeader.SIZE
    _IP_PROTOCOL = IpProtocol.UDP

    @property
    def udp(self) -> UdpHeader:
        return UdpHeader(self.pkt.data, self.l4_offset)

    @property
    def payload_offset(self) -> int:
        return self.l4_offset + UdpHeader.SIZE

    def _fill_setters(self):
        setters = super()._fill_setters()
        udp = self.udp
        setters.update(
            udp_src=lambda v: setattr(udp, "src_port", v),
            udp_dst=lambda v: setattr(udp, "dst_port", v),
        )
        return setters

    def _finalize_lengths(self) -> None:
        super()._finalize_lengths()
        self.udp.length = self.pkt.size - self.l4_offset

    def calculate_udp_checksum(self) -> int:
        """Software UDP checksum over pseudo header + segment."""
        self.udp.checksum = 0
        return self.udp.calculate_checksum(self._pseudo_sum(), self._l4_segment())

    def verify_udp_checksum(self) -> bool:
        """True if the stored UDP checksum is valid (0 means "not used")."""
        if self.udp.checksum == 0:
            return True
        return internet_checksum(self._l4_segment(), self._pseudo_sum()) in (0, 0xFFFF)


class Tcp4Packet(Ip4Packet):
    """Ethernet + IPv4 + TCP."""

    MIN_SIZE = Ip4Packet.MIN_SIZE + TcpHeader.SIZE
    _IP_PROTOCOL = IpProtocol.TCP

    @property
    def tcp(self) -> TcpHeader:
        return TcpHeader(self.pkt.data, self.l4_offset)

    @property
    def payload_offset(self) -> int:
        return self.l4_offset + self.tcp.header_length()

    def _set_defaults(self) -> None:
        super()._set_defaults()
        self.tcp.set_defaults()

    def _fill_setters(self):
        setters = super()._fill_setters()
        tcp = self.tcp
        setters.update(
            tcp_src=lambda v: setattr(tcp, "src_port", v),
            tcp_dst=lambda v: setattr(tcp, "dst_port", v),
            tcp_seq=lambda v: setattr(tcp, "seq_number", v),
            tcp_ack=lambda v: setattr(tcp, "ack_number", v),
            tcp_flags=lambda v: setattr(tcp, "flags", v),
            tcp_window=lambda v: setattr(tcp, "window", v),
        )
        return setters

    def calculate_tcp_checksum(self) -> int:
        """Software TCP checksum over pseudo header + segment."""
        self.tcp.checksum = 0
        return self.tcp.calculate_checksum(self._pseudo_sum(), self._l4_segment())


class Icmp4Packet(Ip4Packet):
    """Ethernet + IPv4 + ICMP."""

    MIN_SIZE = Ip4Packet.MIN_SIZE + IcmpHeader.SIZE
    _IP_PROTOCOL = IpProtocol.ICMP

    @property
    def icmp(self) -> IcmpHeader:
        return IcmpHeader(self.pkt.data, self.l4_offset)

    def _set_defaults(self) -> None:
        super()._set_defaults()
        self.icmp.type = IcmpType.ECHO_REQUEST

    def _fill_setters(self):
        setters = super()._fill_setters()
        icmp = self.icmp
        setters.update(
            icmp_type=lambda v: setattr(icmp, "type", v),
            icmp_code=lambda v: setattr(icmp, "code", v),
            icmp_id=lambda v: setattr(icmp, "identifier", v),
            icmp_seq=lambda v: setattr(icmp, "sequence", v),
        )
        return setters

    def calculate_icmp_checksum(self) -> int:
        """Software ICMP checksum over the full message."""
        self.icmp.checksum = 0
        return self.icmp.calculate_checksum(self._l4_segment())


class EspPacket(Ip4Packet):
    """Ethernet + IPv4 + ESP (IPsec)."""

    MIN_SIZE = Ip4Packet.MIN_SIZE + EspHeader.SIZE
    _IP_PROTOCOL = IpProtocol.ESP

    @property
    def esp(self) -> EspHeader:
        return EspHeader(self.pkt.data, self.l4_offset)

    def _set_defaults(self) -> None:
        super()._set_defaults()
        self.esp.set_defaults()

    def _fill_setters(self):
        setters = super()._fill_setters()
        esp = self.esp
        setters.update(
            esp_spi=lambda v: setattr(esp, "spi", v),
            esp_seq=lambda v: setattr(esp, "sequence", v),
        )
        return setters


class Ip6Packet(_StackView):
    """Ethernet + IPv6."""

    MIN_SIZE = EthernetHeader.SIZE + Ip6Header.SIZE
    _NEXT_HEADER: Optional[int] = None

    @property
    def ip(self) -> Ip6Header:
        return Ip6Header(self.pkt.data, EthernetHeader.SIZE)

    def _set_defaults(self) -> None:
        self.eth.ether_type = EtherType.IP6
        ip = self.ip
        ip.set_defaults()
        if self._NEXT_HEADER is not None:
            ip.next_header = self._NEXT_HEADER

    def _fill_setters(self):
        eth, ip = self.eth, self.ip
        return {
            "eth_src": lambda v: setattr(eth, "src", v),
            "eth_dst": lambda v: setattr(eth, "dst", v),
            "ip_src": lambda v: setattr(ip, "src", v),
            "ip_dst": lambda v: setattr(ip, "dst", v),
            "ip_hop_limit": lambda v: setattr(ip, "hop_limit", v),
            "ip_traffic_class": lambda v: setattr(ip, "traffic_class", v),
            "ip_flow_label": lambda v: setattr(ip, "flow_label", v),
        }

    def _finalize_lengths(self) -> None:
        self.ip.payload_length = (
            self.pkt.size - EthernetHeader.SIZE - Ip6Header.SIZE
        )

    @property
    def l4_offset(self) -> int:
        return EthernetHeader.SIZE + Ip6Header.SIZE


class Udp6Packet(Ip6Packet):
    """Ethernet + IPv6 + UDP."""

    MIN_SIZE = Ip6Packet.MIN_SIZE + UdpHeader.SIZE
    _NEXT_HEADER = IpProtocol.UDP

    @property
    def udp(self) -> UdpHeader:
        return UdpHeader(self.pkt.data, self.l4_offset)

    def _fill_setters(self):
        setters = super()._fill_setters()
        udp = self.udp
        setters.update(
            udp_src=lambda v: setattr(udp, "src_port", v),
            udp_dst=lambda v: setattr(udp, "dst_port", v),
        )
        return setters

    def _finalize_lengths(self) -> None:
        super()._finalize_lengths()
        self.udp.length = self.pkt.size - self.l4_offset

    def calculate_udp_checksum(self) -> int:
        """Software UDP checksum (IPv6 pseudo header)."""
        ip = self.ip
        self.udp.checksum = 0
        segment = bytes(self.pkt.data[self.l4_offset: self.pkt.size])
        pseudo = pseudo_header_sum_v6(
            int(ip.src), int(ip.dst), IpProtocol.UDP, len(segment)
        )
        return self.udp.calculate_checksum(pseudo, segment)


class PtpPacket(_StackView):
    """Ethernet + PTP (EtherType 0x88F7), used for hardware timestamping.

    The minimum PTP-over-Ethernet packet fits in a minimum-sized frame, which
    is why latency probes default to this stack (Section 6.4: UDP PTP packets
    below 80 B are refused by the NICs, Ethernet PTP packets are not).
    """

    MIN_SIZE = EthernetHeader.SIZE + PtpHeader.SIZE

    @property
    def ptp(self) -> PtpHeader:
        return PtpHeader(self.pkt.data, EthernetHeader.SIZE)

    def _set_defaults(self) -> None:
        self.eth.ether_type = EtherType.PTP
        self.ptp.set_defaults()

    def _fill_setters(self):
        eth, ptp = self.eth, self.ptp
        return {
            "eth_src": lambda v: setattr(eth, "src", v),
            "eth_dst": lambda v: setattr(eth, "dst", v),
            "ptp_type": lambda v: setattr(ptp, "message_type", v),
            "ptp_version": lambda v: setattr(ptp, "version", v),
            "ptp_sequence": lambda v: setattr(ptp, "sequence_id", v),
        }


class UdpPtpPacket(Udp4Packet):
    """Ethernet + IPv4 + UDP + PTP (PTP as UDP payload on port 319)."""

    MIN_SIZE = Udp4Packet.MIN_SIZE + PtpHeader.SIZE

    @property
    def ptp(self) -> PtpHeader:
        return PtpHeader(self.pkt.data, self.payload_offset)

    def _set_defaults(self) -> None:
        super()._set_defaults()
        self.udp.dst_port = PTP_UDP_PORT
        self.ptp.set_defaults()

    def _fill_setters(self):
        setters = super()._fill_setters()
        ptp = self.ptp
        setters.update(
            ptp_type=lambda v: setattr(ptp, "message_type", v),
            ptp_version=lambda v: setattr(ptp, "version", v),
            ptp_sequence=lambda v: setattr(ptp, "sequence_id", v),
        )
        return setters


__all__ = [
    "ArpOp",
    "ArpPacket",
    "EspPacket",
    "EthPacket",
    "Icmp4Packet",
    "Ip4Packet",
    "Ip6Packet",
    "MIN_BUFFER_SIZE",
    "PacketData",
    "PtpPacket",
    "Tcp4Packet",
    "Udp4Packet",
    "Udp6Packet",
    "UdpPtpPacket",
]
