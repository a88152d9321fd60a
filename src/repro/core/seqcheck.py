"""Sequence tracking: loss, reordering, and duplicate detection.

A packet generator that can also receive (Section 10: "MoonGen also
features packet reception and analysis") needs to relate sent to received
traffic.  :class:`SequenceStamper` writes a 32-bit sequence number into the
payload of outgoing packets; :class:`SequenceTracker` checks the numbers on
the receive side and accounts losses, reorderings, and duplicates — the
accounting behind any loss-rate experiment (e.g. RFC 2544 trials).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.memory import BufArray
from repro.errors import ConfigurationError

#: Payload offset for the sequence number: after the UDP header.
DEFAULT_SEQ_OFFSET = 42


class SequenceStamper:
    """Writes consecutive sequence numbers into outgoing packets."""

    def __init__(self, offset: int = DEFAULT_SEQ_OFFSET) -> None:
        self.offset = offset
        self.next_seq = 0

    def stamp(self, bufs: BufArray) -> None:
        """Number every packet in the batch; charges one counter field."""
        for buf in bufs:
            if buf.pkt.size < self.offset + 4:
                raise ConfigurationError(
                    f"packet of {buf.pkt.size} B has no room for a sequence "
                    f"number at offset {self.offset}"
                )
            buf.pkt.data[self.offset:self.offset + 4] = (
                self.next_seq & 0xFFFFFFFF
            ).to_bytes(4, "big")
            self.next_seq += 1
        bufs.charge_counter_fields(1)


@dataclass
class SequenceReport:
    """Aggregate receive-side accounting.

    ``gap_events``/``longest_gap`` characterize the *shape* of loss:
    under a bursty channel (e.g. a ``repro.faults`` Gilbert–Elliott model
    or a link flap) the same loss fraction arrives as few, long gaps —
    ``gap_events`` approximates the number of bursts and ``longest_gap``
    the worst one, which a uniform loss fraction would hide.
    """

    received: int = 0
    lost: int = 0
    reordered: int = 0
    duplicates: int = 0
    #: Distinct sequence-number gaps observed (bursts, if loss is bursty).
    gap_events: int = 0
    #: Largest single gap, in packets, at the time it was observed.
    longest_gap: int = 0

    @property
    def loss_fraction(self) -> float:
        """Fraction of expected packets lost, clamped to [0, 1].

        Clamped because straggler re-classification makes ``lost``
        transiently non-monotonic; a report read mid-stream must still be
        a valid fraction.
        """
        total = self.received + self.lost
        if total <= 0:
            return 0.0
        return min(1.0, max(0.0, self.lost / total))


class SequenceTracker:
    """Checks sequence numbers on received packets.

    Loss accounting is gap-based: a jump from n to n+k marks k-1 packets
    lost; if one of them shows up later it is re-classified as reordered.
    Gaps only show between received packets, so frames lost after the
    last one received (tail loss, or total loss) need
    :meth:`count_tail_loss` with the number of frames that were due.
    """

    def __init__(self, offset: int = DEFAULT_SEQ_OFFSET,
                 window: int = 4096) -> None:
        self.offset = offset
        self.window = window
        self.report = SequenceReport()
        self._expected = 0
        self._missing = set()
        self._seen_recent = set()

    def observe(self, buf) -> int:
        """Account one received packet buffer; returns its sequence number."""
        data = buf.pkt.data
        seq = int.from_bytes(data[self.offset:self.offset + 4], "big")
        report = self.report
        if seq in self._seen_recent:
            report.duplicates += 1
            return seq
        self._remember(seq)
        if seq == self._expected:
            report.received += 1
            self._expected += 1
        elif seq > self._expected:
            # A gap: everything skipped is provisionally lost.
            skipped = range(self._expected, seq)
            self._missing.update(skipped)
            report.lost += len(skipped)
            report.gap_events += 1
            if len(skipped) > report.longest_gap:
                report.longest_gap = len(skipped)
            report.received += 1
            self._expected = seq + 1
        else:
            # A straggler from an earlier gap.
            if seq in self._missing:
                self._missing.discard(seq)
                report.lost -= 1
                report.reordered += 1
                report.received += 1
            else:
                report.duplicates += 1
        return seq

    def count_tail_loss(self, due: int) -> int:
        """Count the due frames that never arrived after the last one seen.

        ``due`` is the number of frames, sequence numbers ``0 .. due-1``,
        that have had every chance to arrive: frames sent minus frames
        still in transit.  Those above the highest sequence number seen
        become lost (and reorder like gap losses if one shows up later);
        ``gap_events``/``longest_gap`` keep describing gaps between
        received frames.  Returns the number of frames added to ``lost``.
        """
        tail = due - self._expected
        if tail <= 0:
            return 0
        self._missing.update(range(self._expected, due))
        self._expected = due
        self.report.lost += tail
        return tail

    def observe_batch(self, bufs: BufArray) -> None:
        for buf in bufs:
            self.observe(buf)

    def _remember(self, seq: int) -> None:
        self._seen_recent.add(seq)
        if len(self._seen_recent) > self.window:
            # Evict the oldest half; exactness only matters within the
            # reordering window, like real loss counters.
            cutoff = max(self._seen_recent) - self.window // 2
            self._seen_recent = {s for s in self._seen_recent if s >= cutoff}
