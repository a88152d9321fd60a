"""Tests for checksums and the Ethernet FCS."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.packet import checksum as ck


class TestInternetChecksum:
    def test_known_vector(self):
        # Classic RFC 1071 example header.
        data = bytes.fromhex("45000073000040004011b861c0a80001c0a800c7")
        # Zero the checksum field (bytes 10-11) and recompute.
        zeroed = data[:10] + b"\x00\x00" + data[12:]
        assert ck.internet_checksum(zeroed) == 0xB861

    def test_validates_to_zero(self):
        data = bytes.fromhex("45000073000040004011b861c0a80001c0a800c7")
        assert ck.internet_checksum(data) == 0

    def test_odd_length_padding(self):
        # Odd-length buffers are padded with a zero byte.
        assert ck.internet_checksum(b"\x12") == ck.internet_checksum(b"\x12\x00")

    def test_empty(self):
        assert ck.internet_checksum(b"") == 0xFFFF

    @given(st.binary(min_size=0, max_size=256))
    def test_verification_property(self, payload):
        """Appending the computed checksum makes the total sum validate."""
        value = ck.internet_checksum(payload)
        if len(payload) % 2:
            # Insert at even offset to keep word alignment.
            payload = payload + b"\x00"
        combined = payload + struct.pack(">H", value)
        assert ck.internet_checksum(combined) == 0

    @given(st.binary(min_size=2, max_size=64))
    def test_checksum_range(self, payload):
        assert 0 <= ck.internet_checksum(payload) <= 0xFFFF


def _sum16_reference(data):
    """The RFC 1071 per-byte loop ``_sum16`` used to be."""
    buf = bytes(data)
    if len(buf) % 2:
        buf += b"\x00"
    total = 0
    for i in range(0, len(buf), 2):
        total += (buf[i] << 8) | buf[i + 1]
    return total


_BUFFER_KINDS = st.sampled_from([bytes, bytearray, memoryview])


class TestSum16MatchesReference:
    """``_sum16`` unpacks words in C; the unfolded sum must not change."""

    @given(st.binary(min_size=0, max_size=1600), _BUFFER_KINDS,
           st.integers(min_value=0, max_value=0x3FFFF))
    def test_sum_and_checksum_equal_per_byte_loop(self, raw, kind, initial):
        data = kind(raw)
        ref = _sum16_reference(raw)
        assert ck._sum16(data) == ref
        assert ck.internet_checksum(data, initial) == ck._fold(ref + initial)

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    @pytest.mark.parametrize("raw", [b"", b"\xff", b"\x01\x02\x03",
                                     b"\xff" * 1501])
    def test_empty_and_odd_lengths(self, kind, raw):
        assert ck._sum16(kind(raw)) == _sum16_reference(raw)

    def test_memoryview_slice(self):
        raw = bytearray(range(200))
        view = memoryview(raw)[3:104]
        assert ck._sum16(view) == _sum16_reference(raw[3:104])


class TestPseudoHeader:
    def test_v4_sum_parts(self):
        total = ck.pseudo_header_sum_v4(0x0A000001, 0x0A000002, 17, 20)
        assert total == 0x0A00 + 0x0001 + 0x0A00 + 0x0002 + 17 + 20

    def test_v6_includes_full_addresses(self):
        # The top 16-bit word of the source address participates in the sum.
        small = ck.pseudo_header_sum_v6(1, 2, 17, 8)
        big = ck.pseudo_header_sum_v6(3 << 112, 2, 17, 8)
        assert big - small == 3 - 1

    def test_full_checksum_differs_by_protocol(self):
        payload = b"\x00" * 16
        a = ck.pseudo_header_checksum(1, 2, 6, payload)
        b = ck.pseudo_header_checksum(1, 2, 17, payload)
        assert a != b


class TestFcs:
    def test_known_crc(self):
        assert ck.ethernet_fcs(b"123456789") == 0xCBF43926

    def test_check_fcs_roundtrip(self):
        frame = bytearray(b"\x01" * 60)
        full = bytes(frame) + ck.fcs_bytes(frame)
        assert ck.check_fcs(full)

    def test_corrupt_fcs_invalidates(self):
        frame = bytearray(b"\x01" * 60)
        full = bytearray(bytes(frame) + ck.fcs_bytes(frame))
        ck.corrupt_fcs(full)
        assert not ck.check_fcs(full)

    def test_corrupt_requires_room(self):
        with pytest.raises(ValueError):
            ck.corrupt_fcs(bytearray(b"ab"))

    def test_check_fcs_short_frame(self):
        assert not ck.check_fcs(b"abc")

    @given(st.binary(min_size=14, max_size=128))
    def test_fcs_property(self, body):
        full = bytes(body) + ck.fcs_bytes(body)
        assert ck.check_fcs(full)
        tampered = bytearray(full)
        tampered[0] ^= 0x01
        assert not ck.check_fcs(tampered)
