"""``fill()`` replays a proven write-set; it must match the setter path."""

import pytest

from repro.errors import AddressError
from repro.packet import PacketData
from repro.packet import packet as packet_mod
from repro.packet.address import Ip4Address, Ip6Address, MacAddress
from repro.packet.packet import (
    ArpPacket,
    EspPacket,
    EthPacket,
    Icmp4Packet,
    Ip4Packet,
    Ip6Packet,
    PtpPacket,
    Tcp4Packet,
    Udp4Packet,
    Udp6Packet,
    UdpPtpPacket,
)

DIRTY = 0x5A

#: Every stack class with overrides of every replayable value type.
CASES = [
    (EthPacket, dict(eth_src="02:00:00:00:00:00", eth_dst="10:11:12:13:14:15",
                     eth_type=0x0800)),
    (ArpPacket, dict(eth_src=MacAddress("02:00:00:00:00:01"), arp_operation=2,
                     arp_hw_src="02:00:00:00:00:01",
                     arp_proto_src="10.0.0.1", arp_proto_dst="10.0.0.2")),
    (Ip4Packet, dict(pkt_length=64, ip_src=Ip4Address("10.0.0.1") + 3,
                     ip_dst="192.168.1.1", ip_ttl=7, ip_tos=0x10,
                     ip_id=77, ip_protocol=253)),
    (Udp4Packet, dict(pkt_length=60, udp_dst=319)),
    (Udp4Packet, dict(pkt_length=124, eth_dst=b"\x10\x11\x12\x13\x14\x15",
                      ip_src="10.0.0.1", udp_src=1234, udp_dst=42)),
    (Tcp4Packet, dict(pkt_length=80, tcp_src=40000, tcp_dst=80,
                      tcp_seq=123456, tcp_flags=0x02, tcp_window=512)),
    (Icmp4Packet, dict(pkt_length=70, icmp_type=0, icmp_code=0, icmp_id=3,
                       icmp_seq=9)),
    (EspPacket, dict(pkt_length=90, esp_spi=0xDEAD, esp_seq=5)),
    (Ip6Packet, dict(pkt_length=80, ip_src=Ip6Address("fe80::1"),
                     ip_dst="fe80::2", ip_hop_limit=9,
                     ip_traffic_class=3, ip_flow_label=0x12345)),
    (Udp6Packet, dict(pkt_length=90, ip_src="fe80::1", udp_src=5,
                      udp_dst=6)),
    (PtpPacket, dict(eth_dst="01:1b:19:00:00:00", ptp_type=0,
                     ptp_sequence=1234, ptp_version=2)),
    (UdpPtpPacket, dict(pkt_length=90, ip_dst="10.1.0.2", udp_src=319,
                        ptp_sequence=7)),
]


#: Stacks whose defaults keep some bits of the old buffer (the TCP data
#: offset's reserved nibble, the IPv6 version byte's low nibble, the PTP
#: transport-specific and reserved nibbles): the proof refuses them.
READ_MODIFY_WRITE = (Tcp4Packet, Udp6Packet, PtpPacket, UdpPtpPacket)


@pytest.fixture(autouse=True)
def fresh_cache():
    packet_mod._FILL_RUNS.clear()
    yield
    packet_mod._FILL_RUNS.clear()


def dirty_pkt(size=60, capacity=256):
    return PacketData.wrap(bytearray([DIRTY]) * capacity, size)


def setter_fill(cls, pkt, **kwargs):
    """The per-field setter path, run by hand: defaults, overrides,
    lengths — what ``fill`` did before it replayed write-sets."""
    view = cls(pkt)
    pkt_length = kwargs.pop("pkt_length", None)
    if pkt_length is not None:
        view._set_length(int(pkt_length))
    view._set_defaults()
    setters = view._fill_setters()
    for name, value in kwargs.items():
        setter = setters.get(name)
        if setter is None:
            raise TypeError(f"unknown fill field {name!r} for {cls.__name__}")
        setter(value)
    view._finalize_lengths()


def replayed_entries():
    return [v for v in packet_mod._FILL_RUNS.values()
            if isinstance(v, tuple)]


@pytest.mark.parametrize("cls, overrides", CASES,
                         ids=[f"{c.__name__}-{i}" for i, (c, _) in
                              enumerate(CASES)])
def test_replay_on_dirty_buffer_matches_setter_path(cls, overrides):
    expected = dirty_pkt()
    setter_fill(cls, expected, **overrides)
    # The first use only marks the key, the second proves it, the third
    # and later replay it (or take the setter path, if the proof failed).
    got = []
    for _ in range(4):
        pkt = dirty_pkt()
        cls(pkt).fill(**overrides)
        got.append(pkt)
    assert len(replayed_entries()) == (cls not in READ_MODIFY_WRITE)
    for pkt in got:
        assert pkt.size == expected.size
        assert pkt.data == expected.data


def test_override_order_is_part_of_the_key():
    a = dict(eth_src="02:00:00:00:00:01", eth_dst="02:00:00:00:00:02")
    b = dict(eth_dst="02:00:00:00:00:02", eth_src="02:00:00:00:00:01")
    for overrides in (a, b, a, b, a, b):
        pkt = dirty_pkt()
        pkt.eth_packet.fill(**overrides)
        expected = dirty_pkt()
        setter_fill(EthPacket, expected, **overrides)
        assert pkt.data == expected.data
    assert len(packet_mod._FILL_RUNS) == 2


def test_unknown_key_still_raises_type_error():
    for _ in range(4):
        with pytest.raises(TypeError, match="unknown fill field 'udp_bogus'"):
            dirty_pkt().udp_packet.fill(pkt_length=60, udp_bogus=1)


@pytest.mark.parametrize("overrides, error", [
    (dict(eth_src="not-a-mac"), AddressError),
    (dict(ip_src="999.0.0.1"), AddressError),
    (dict(udp_dst="x"), ValueError),
])
def test_bad_value_still_raises_the_setter_error(overrides, error):
    with pytest.raises(error) as before:
        setter_fill(Udp4Packet, dirty_pkt(), pkt_length=60, **overrides)
    for _ in range(4):
        with pytest.raises(error) as now:
            dirty_pkt().udp_packet.fill(pkt_length=60, **overrides)
        assert str(now.value) == str(before.value)


class FancyInt(int):
    """An int subclass the cache knows nothing about."""


@pytest.mark.parametrize("value", [
    bytearray(b"\x02\x00\x00\x00\x00\x07"),
    memoryview(b"\x02\x00\x00\x00\x00\x07"),
    FancyInt(7),
])
def test_unknown_or_mutable_values_take_the_setter_path(value):
    for _ in range(4):
        pkt = dirty_pkt()
        pkt.eth_packet.fill(eth_src=value)
        expected = dirty_pkt()
        setter_fill(EthPacket, expected, eth_src=value)
        assert pkt.data == expected.data
    assert not packet_mod._FILL_RUNS


def test_mutating_a_value_between_fills_is_seen():
    mac = bytearray(b"\x02\x00\x00\x00\x00\x01")
    for last in range(1, 5):
        mac[-1] = last
        pkt = dirty_pkt()
        pkt.eth_packet.fill(eth_src=mac)
        assert pkt.data[6:12] == mac


def test_cache_stays_bounded():
    bound = packet_mod._FILL_RUNS_MAX
    for i in range(3 * bound):
        for _ in range(2):
            pkt = dirty_pkt()
            pkt.udp_packet.fill(pkt_length=60, udp_src=i)
            assert len(packet_mod._FILL_RUNS) <= bound
        expected = dirty_pkt()
        setter_fill(Udp4Packet, expected, pkt_length=60, udp_src=i)
        assert pkt.data == expected.data


def test_buffer_smaller_than_the_scratch_image():
    # The proof runs on a buffer of at least 64 bytes; replay into a
    # 20-byte buffer must still write only what the setters write.
    for _ in range(4):
        pkt = PacketData.wrap(bytearray([DIRTY]) * 20, 20)
        pkt.eth_packet.fill(eth_type=0x88F7)
        expected = PacketData.wrap(bytearray([DIRTY]) * 20, 20)
        setter_fill(EthPacket, expected, eth_type=0x88F7)
        assert pkt.data == expected.data
    assert len(replayed_entries()) == 1
