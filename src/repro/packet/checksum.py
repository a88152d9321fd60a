"""Checksum and CRC helpers.

Implements the RFC 1071 internet checksum (used by IPv4/UDP/TCP/ICMP), the
UDP/TCP pseudo-header checksum the paper mentions MoonGen must compute in
software before offloading ("MoonGen also needs to calculate the IP pseudo
header checksum as this is not supported by the X540"), and the Ethernet
CRC32 frame check sequence used by the CRC-gap rate-control mechanism.
"""

from __future__ import annotations

import struct
import zlib
from typing import Union

Buffer = Union[bytes, bytearray, memoryview]


def _sum16(data: Buffer) -> int:
    """Sum a buffer as big-endian 16-bit words (without folding).

    An odd-length buffer is padded with one zero byte.  ``struct`` unpacks
    every word in C; the Python-level sum of the word tuple is the same
    unfolded total the RFC 1071 per-byte loop gives.
    """
    buf = data if isinstance(data, (bytes, bytearray)) else bytes(data)
    n = len(buf)
    if n % 2:
        buf = bytes(buf) + b"\x00"
        n += 1
    return sum(struct.unpack(">%dH" % (n >> 1), buf))


def _fold(total: int) -> int:
    """Fold carries into 16 bits and take the one's complement."""
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def internet_checksum(data: Buffer, initial: int = 0) -> int:
    """RFC 1071 internet checksum of a buffer.

    ``initial`` is an unfolded partial sum (e.g. a pseudo-header sum) added
    before folding.  The checksum field itself must be zeroed by the caller.
    """
    return _fold(_sum16(data) + initial)


def pseudo_header_sum_v4(
    src: int, dst: int, protocol: int, length: int
) -> int:
    """Unfolded 16-bit sum of the IPv4 pseudo header.

    ``src``/``dst`` are 32-bit addresses as ints, ``length`` is the L4
    segment length in bytes.
    """
    total = (src >> 16) + (src & 0xFFFF)
    total += (dst >> 16) + (dst & 0xFFFF)
    total += protocol
    total += length
    return total


def pseudo_header_sum_v6(src: int, dst: int, next_header: int, length: int) -> int:
    """Unfolded 16-bit sum of the IPv6 pseudo header."""
    total = 0
    for addr in (src, dst):
        for shift in range(112, -1, -16):
            total += (addr >> shift) & 0xFFFF
    total += next_header
    total += (length >> 16) + (length & 0xFFFF)
    return total


def pseudo_header_checksum(
    src: int, dst: int, protocol: int, payload: Buffer, ipv6: bool = False
) -> int:
    """Full L4 checksum over pseudo header + payload (checksum field zeroed)."""
    if ipv6:
        initial = pseudo_header_sum_v6(src, dst, protocol, len(bytes(payload)))
    else:
        initial = pseudo_header_sum_v4(src, dst, protocol, len(bytes(payload)))
    return internet_checksum(payload, initial)


def ethernet_fcs(frame_without_fcs: Buffer) -> int:
    """Ethernet CRC32 frame check sequence of a frame body.

    Returns the 32-bit FCS as transmitted (IEEE 802.3 CRC32, i.e. the
    little-endian complemented CRC as produced by :func:`zlib.crc32`).
    """
    return zlib.crc32(bytes(frame_without_fcs)) & 0xFFFFFFFF


def fcs_bytes(frame_without_fcs: Buffer) -> bytes:
    """The 4 FCS bytes appended to a frame on the wire."""
    return ethernet_fcs(frame_without_fcs).to_bytes(4, "little")


def check_fcs(frame_with_fcs: Buffer) -> bool:
    """Validate the trailing 4-byte FCS of a full frame."""
    raw = bytes(frame_with_fcs)
    if len(raw) < 5:
        return False
    return fcs_bytes(raw[:-4]) == raw[-4:]


def corrupt_fcs(frame_with_fcs: bytearray) -> None:
    """Flip bits in a frame's FCS so the frame becomes invalid on the wire.

    Used by the CRC-gap rate-control mechanism (Section 8 of the paper): the
    filler frames carry an intentionally wrong checksum so the device under
    test drops them in hardware.
    """
    if len(frame_with_fcs) < 4:
        raise ValueError("frame too short to carry an FCS")
    frame_with_fcs[-1] ^= 0xFF
