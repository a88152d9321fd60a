"""Interrupt moderation: an ixgbe-style adaptive ITR.

The ixgbe driver throttles interrupts to a class-dependent maximum rate and
reclassifies each interrupt period based on the observed traffic
(``ixgbe_update_itr``): sparse low-latency traffic gets high-rate
interrupts, bulky traffic gets heavily moderated ones.  Two signals drive
reclassification here:

* **clumps** — packets arriving back-to-back (within a small window) look
  like bulk transfers to the driver and push the class down.  This is the
  paper's Figure 7 effect: "the bursts trigger the interrupt rate
  moderation feature of the driver earlier than expected", which is why
  zsend's micro-bursts produce a far lower interrupt rate than MoonGen's
  CBR traffic at the same offered load;
* **bytes per period** — large transfers push the class down even without
  clumping (relevant for big frames).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Traffic classes of the ixgbe dynamic ITR.
LOWEST_LATENCY = 0
LOW_LATENCY = 1
BULK_LATENCY = 2


@dataclass
class ItrConfig:
    """Interrupt-moderation parameters (ixgbe-like defaults).

    ``rates`` are the maximum interrupts per second for the three classes;
    clump and byte thresholds drive per-period reclassification.
    """

    lowest_rate_hz: float = 150_000.0
    low_rate_hz: float = 20_000.0
    bulk_rate_hz: float = 8_000.0
    #: Arrival gap below which consecutive packets count as one clump.
    clump_window_ns: float = 200.0
    #: Max clump length at/above which the class degrades one step.
    clump_degrade: int = 3
    #: Max clump length at/below which the class recovers one step.
    clump_recover: int = 1
    #: bytes/period above which the class degrades regardless of clumping.
    bytes_degrade: int = 24_000
    #: bytes/period below which the byte rule allows recovery.
    bytes_recover: int = 12_000
    #: Fixed interrupt servicing cost on the DuT CPU (ns).
    interrupt_overhead_ns: float = 2_000.0

    def interval_ns(self, latency_class: int) -> float:
        rate = {
            LOWEST_LATENCY: self.lowest_rate_hz,
            LOW_LATENCY: self.low_rate_hz,
            BULK_LATENCY: self.bulk_rate_hz,
        }[latency_class]
        return 1e9 / rate


class InterruptModerator:
    """Tracks the adaptive-ITR state machine across interrupts."""

    def __init__(self, config: ItrConfig) -> None:
        self.config = config
        self.latency_class = LOWEST_LATENCY
        self.interrupts = 0
        self.last_interrupt_ns = float("-inf")
        self._period_bytes = 0
        self._period_packets = 0
        self._clump_len = 1
        self._max_clump = 0
        self._last_arrival_ns = float("-inf")
        self.class_history = []

    # -- per-packet accounting ---------------------------------------------------

    def observe_arrival(self, now_ns: float) -> None:
        """Track back-to-back arrival clumps (NIC-side observation)."""
        if now_ns - self._last_arrival_ns <= self.config.clump_window_ns:
            self._clump_len += 1
        else:
            self._clump_len = 1
        if self._clump_len > self._max_clump:
            self._max_clump = self._clump_len
        self._last_arrival_ns = now_ns

    def account(self, packets: int, nbytes: int) -> None:
        """Record traffic handled since the last interrupt."""
        self._period_packets += packets
        self._period_bytes += nbytes

    # -- interrupt firing ------------------------------------------------------------

    def next_allowed_ns(self) -> float:
        """Earliest time the next interrupt may fire."""
        return self.last_interrupt_ns + self.config.interval_ns(self.latency_class)

    def fire(self, now_ns: float) -> None:
        """An interrupt fires: count it and reclassify for the next period.

        The class moves at most one step per interrupt, like
        ``ixgbe_update_itr``.
        """
        self.interrupts += 1
        self.last_interrupt_ns = now_ns
        cfg = self.config
        degrade = (
            self._max_clump >= cfg.clump_degrade
            or self._period_bytes > cfg.bytes_degrade
        )
        recover = (
            self._max_clump <= cfg.clump_recover
            and self._period_bytes <= cfg.bytes_recover
        )
        if degrade and self.latency_class < BULK_LATENCY:
            self.latency_class += 1
        elif recover and self.latency_class > LOWEST_LATENCY:
            self.latency_class -= 1
        self.class_history.append(self.latency_class)
        self._period_bytes = 0
        self._period_packets = 0
        self._max_clump = 0

    def rate_hz(self, duration_ns: float) -> float:
        """Average interrupt rate over an experiment."""
        if duration_ns <= 0:
            return 0.0
        return self.interrupts / (duration_ns / 1e9)
