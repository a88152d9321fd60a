"""Checksum offloads are memoized by frame content; the memo must never
serve stale wire bytes and must match an unmemoized computation."""

import itertools

import pytest

from repro.core import tasks
from repro.core.flows import src_ip_field
from repro.core.memory import MemPool
from repro.core.tasks import materialize_frame, materialize_frames
from repro.packet import PacketData
from repro.packet.address import Ip4Address

#: (kind, fill) for every stack the offload path distinguishes.
KINDS = [
    ("udp4", lambda p: p.udp_packet.fill(
        pkt_length=80, ip_src="10.0.0.1", ip_dst="10.0.0.2", udp_dst=42)),
    ("tcp4", lambda p: p.tcp_packet.fill(
        pkt_length=80, ip_src="10.0.0.1", tcp_dst=80, tcp_seq=7)),
    ("icmp4", lambda p: p.icmp_packet.fill(
        pkt_length=81, ip_src="10.0.0.1", icmp_id=3)),
    ("ip4", lambda p: p.ip_packet.fill(
        pkt_length=70, ip_src="10.0.0.1", ip_protocol=253)),
    ("udp6", lambda p: p.udp6_packet.fill(
        pkt_length=90, ip_src="fe80::1", udp_src=5, udp_dst=6)),
]
FLAGS = list(itertools.product((False, True), repeat=2))


@pytest.fixture(autouse=True)
def fresh_memo():
    tasks._OFFLOAD_MEMO.clear()
    yield
    tasks._OFFLOAD_MEMO.clear()


def make_bufs(n=4, size=60):
    pool = MemPool(n_buffers=n, buf_capacity=512)
    bufs = pool.buf_array(n)
    bufs.alloc(size)
    return list(bufs)


def reference_wire(raw: bytes, offload_ip: bool, offload_l4: bool) -> bytes:
    """The NIC's offloads computed from scratch, without any memo."""
    pkt = PacketData.wrap(bytearray(raw))
    kind = pkt.classify()
    if kind in ("udp4", "tcp4", "icmp4", "ip4"):
        if offload_l4:
            if kind == "udp4":
                pkt.udp_packet.calculate_udp_checksum()
            elif kind == "tcp4":
                pkt.tcp_packet.calculate_tcp_checksum()
            elif kind == "icmp4":
                pkt.icmp_packet.calculate_icmp_checksum()
        if offload_ip:
            pkt.ip_packet.calculate_ip_checksum()
    elif kind == "udp6" and offload_l4:
        pkt.udp6_packet.calculate_udp_checksum()
    return bytes(pkt.data)


@pytest.mark.parametrize("offload_ip, offload_l4", FLAGS)
@pytest.mark.parametrize("kind, fill", KINDS, ids=[k for k, _ in KINDS])
def test_every_kind_and_flag_matches_unmemoized_reference(
        kind, fill, offload_ip, offload_l4):
    buf = make_bufs(1)[0]
    fill(buf.pkt)
    assert buf.pkt.classify() == kind
    buf.offload_ip, buf.offload_l4 = offload_ip, offload_l4
    raw = buf.pkt.bytes()
    expected = reference_wire(raw, offload_ip, offload_l4)
    # Miss, then hit: both must equal the reference.
    for _ in range(2):
        frame = materialize_frame(buf)
        assert frame.data == expected
        assert frame.size == len(raw) + 4
    assert buf.pkt.bytes() == raw, "offloads must not touch the buffer"


def test_rewriting_the_same_buffer_gives_fresh_checksums():
    """The stale-cache bug: a flow generator rewrites ip.src of a buffer
    between sends; each send must carry that address's checksums."""
    buf = make_bufs(1)[0]
    buf.pkt.udp_packet.fill(pkt_length=60, ip_src="10.0.0.1", udp_dst=319)
    buf.offload_ip = buf.offload_l4 = True
    field = src_ip_field("10.0.0.1", range_size=4)
    seen = set()
    for _ in range(3):
        for i in range(4):
            field.setter(buf, i)
            frame = materialize_frames([buf])[0]
            wire = PacketData.wrap(bytearray(frame.data))
            assert wire.ip_packet.ip.src == Ip4Address("10.0.0.1") + i
            assert wire.ip_packet.ip.verify_checksum()
            assert wire.udp_packet.verify_udp_checksum()
            assert frame.data == reference_wire(buf.pkt.bytes(), True, True)
            seen.add(wire.ip_packet.ip.checksum)
    assert len(seen) == 4


def test_in_place_edit_between_sends_via_udp_header():
    buf = make_bufs(1)[0]
    buf.pkt.udp_packet.fill(pkt_length=60, udp_dst=319)
    buf.offload_l4 = True
    first = materialize_frame(buf).data
    buf.pkt.udp_packet.udp.src_port = 4242
    second = materialize_frame(buf).data
    assert first != second
    assert second == reference_wire(buf.pkt.bytes(), False, True)


def test_mixed_batch_shares_one_loop_and_one_seq_per_frame():
    bufs = make_bufs(6)
    for i, buf in enumerate(bufs):
        buf.pkt.udp_packet.fill(pkt_length=60, udp_src=i % 2)
        buf.offload_l4 = buf.offload_ip = bool(i % 2)
    bufs[3].timestamp_flag = True
    bufs[4].corrupt_fcs = True
    frames = materialize_frames(bufs)
    seqs = [f.seq for f in frames]
    assert seqs == list(range(seqs[0], seqs[0] + len(bufs)))
    for buf, frame in zip(bufs, frames):
        assert frame.data == reference_wire(
            buf.pkt.bytes(), buf.offload_ip, buf.offload_l4)
        assert frame.recycle is buf
        assert frame.fcs_ok == (not buf.corrupt_fcs)
        assert frame.meta.get("timestamp", False) == buf.timestamp_flag


def test_memo_stays_within_its_bound():
    bound = tasks._OFFLOAD_MEMO_MAX
    buf = make_bufs(1)[0]
    buf.pkt.udp_packet.fill(pkt_length=60, udp_dst=319)
    buf.offload_ip = buf.offload_l4 = True
    ip = buf.ip_packet.ip
    for i in range(bound + bound // 2 + 3):
        ip.src = Ip4Address("10.0.0.0") + i
        frame = materialize_frame(buf)
        assert len(tasks._OFFLOAD_MEMO) <= bound
        assert frame.data == reference_wire(buf.pkt.bytes(), True, True)


def test_plain_buffers_never_enter_the_memo():
    bufs = make_bufs(4)
    for buf in bufs:
        buf.pkt.udp_packet.fill(pkt_length=60)
    materialize_frames(bufs)
    assert not tasks._OFFLOAD_MEMO
