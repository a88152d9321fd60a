"""The benchmark's three workloads, their ops and their output checks.

Every workload is a closed loop of independent *ops* run one after
another in one process.  An op is one simulation the paper's own
experiments run:

* ``tx_linerate`` -- one Section 5.2 transmit run: a fresh ``MoonGenEnv``,
  one core driving one 10 GbE port into a sink with 64 B UDP frames (one
  random field plus UDP checksum offload), as the MoonGen script or with
  Pktgen-DPDK's loop overhead, at one core frequency;
* ``dut_latency`` -- one l2-load-latency run: hardware-paced CBR on queue 0
  and PTP probes on queue 1 through the event-driven OvS forwarder;
* ``rfc2544_search`` -- one loss-probe trial of an RFC 2544 binary search
  (CRC-gap CBR departures fed to the vectorized forwarder model).

Inputs derive from the run seed only: op cycle ``c`` uses the sub-seed
``seed + c % SUBSEEDS``.  With :data:`DEFAULT_SEED` every op's outputs are
compared with the values pinned in ``pins.json``; with any other seed the
ops are checked against conservation invariants instead.  A mismatch or an
exception fails that op and the run goes on.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import MoonGenEnv, Timestamper, units
from repro.analysis import rfc2544
from repro.dut import OvsForwarder
from repro.nicsim.cpu import frequency_steps

#: The seed whose op outputs are pinned (the Section 5.2 bench's seed).
DEFAULT_SEED = 9
#: Op cycles rotate through this many sub-seeds.
SUBSEEDS = 4
#: Ops a measured run completes at least, so p90 has 10 samples beyond it.
MIN_OPS = 100
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")

# -- tx_linerate -----------------------------------------------------------

#: Section 5.2: MoonGen's script, and Pktgen-DPDK's generic main loop that
#: costs 4 extra cycles per packet (the paper bench's calibration).
SCRIPTS = (("moongen", 0.0), ("pktgen", 4.0))
FREQS_HZ = frequency_steps()  # 1.2-2.4 GHz in 100 MHz steps
TX_WARMUP_NS = 20_000
TX_WINDOW_NS = 200_000

# -- dut_latency -----------------------------------------------------------

LOADS_MPPS = tuple(k / 10 for k in range(2, 20))  # 0.2-1.9 Mpps CBR
DUT_DURATION_NS = 2_000_000
PROBE_INTERVAL_NS = 50_000.0
PROBES = 1_000  # more than fit: the run horizon ends the probe task

# -- rfc2544_search --------------------------------------------------------

FRAME_SIZES = (64, 1518, 128, 1280, 256, 1024, 512)
#: 10 ms trials with a 1024-deep DuT ring: the ring fills at the same
#: overload as the library's 40 ms / 4096-descriptor default, so the
#: search finds the same zero-loss rates at a quarter of the cost.
TRIAL_S = 0.01
DUT_RING = 1024
RESOLUTION = 0.01
#: Section 8.3: the OvS DuT forwards ~1.93 Mpps of 64 B frames.
ZERO_LOSS_64B_PPS = 1.93e6
ZERO_LOSS_REL_TOL = 0.06


def spread(n: int, stride: int) -> List[int]:
    """A permutation of ``range(n)`` whose every prefix mixes the range.

    A run stops after however many ops fit in its time, so the order within
    a cycle decides the op mix of the last, partial cycle.
    """
    assert math.gcd(n, stride) == 1
    return [(i * stride) % n for i in range(n)]


class Driver:
    """How ops advance simulated time: the library's own calls.

    The traced run substitutes a driver that runs the same horizons under
    :class:`repro.metrics.profiler.LoopProfiler` (see ``layers.py``).
    """

    def run_for(self, env, duration_ns: float) -> None:
        env.run_for(duration_ns)

    def wait_for_slaves(self, env, duration_ns: float) -> None:
        env.wait_for_slaves(duration_ns=duration_ns)


def new_env(seed: int, batch: bool = False, **kwargs) -> MoonGenEnv:
    """A ``MoonGenEnv`` with the library's defaults (``batch`` only for the
    traced run's batch-tier check)."""
    if batch:
        kwargs["batch"] = True
    return MoonGenEnv(seed=seed, **kwargs)


# -- ops ---------------------------------------------------------------------

def tx_linerate_op(sub: int, freq_hz: float, script: str, driver: Driver,
                   batch: bool = False) -> Tuple[int, dict, MoonGenEnv]:
    """One Section 5.2 run: warm-up window, then the measured window."""
    overhead = dict(SCRIPTS)[script]
    env = new_env(sub, batch, core_freq_hz=freq_hz)
    tx = env.config_device(0, tx_queues=1)
    rx = env.config_device(1, rx_queues=1)
    wire, _ = env.connect(tx, rx)

    def slave(env, queue):
        mem = env.create_mempool(fill=lambda b: b.udp_packet.fill(
            pkt_length=60, udp_dst=319))
        bufs = mem.buf_array()
        while env.running():
            bufs.alloc(60)
            bufs.charge_random_fields(1)  # 256 varying source IPs
            bufs.offload_udp_checksums()
            op = queue.send(bufs)
            op.extra_cycles = overhead * len(bufs)
            yield op

    env.launch(slave, env, tx.get_tx_queue(0))
    driver.run_for(env, TX_WARMUP_NS)
    count0, t0 = tx.tx_packets, env.now_ns
    driver.run_for(env, TX_WINDOW_NS)
    count1, t1 = tx.tx_packets, env.now_ns
    env.stop()
    for task in env.tasks:
        task.kill()
    out = {
        "tx": tx.tx_packets,
        "window_tx": count1 - count0,
        "mpps": (count1 - count0) / (t1 - t0) * 1e3,
        "rx": rx.port.rx_packets,
        "rx_crc": rx.port.rx_crc_errors,
        "in_flight": wire.in_flight,
        "wire_dropped": wire.dropped,
    }
    return tx.tx_packets, out, env


def dut_latency_op(sub: int, load_mpps: float, driver: Driver,
                   batch: bool = False) -> Tuple[int, dict, MoonGenEnv]:
    """One l2-load-latency run (the ``repro.testbed.dut_topology`` wiring)."""
    env = new_env(sub, batch, core_freq_hz=2.4e9)
    tx = env.config_device(0, tx_queues=2, rx_queues=1)
    rx = env.config_device(1, tx_queues=1, rx_queues=1)
    dut = OvsForwarder(env.loop)
    wire_in = env.connect_to_sink(tx, dut.ingress)
    wire_out = env.wire_to_device(rx)
    dut.connect_output(wire_out)
    env.register_dut(dut)

    load = tx.get_tx_queue(0)
    load.set_rate_pps(load_mpps * 1e6, units.MIN_FRAME_SIZE)
    dst = str(rx.mac)

    def load_slave(env, queue):
        mem = env.create_mempool(fill=lambda b: b.eth_packet.fill(
            eth_src="02:00:00:00:00:00", eth_dst=dst, eth_type=0x0800))
        bufs = mem.buf_array()
        while env.running():
            bufs.alloc(units.MIN_FRAME_SIZE - 4)
            yield queue.send(bufs)

    env.launch(load_slave, env, load)
    ts = Timestamper(env, tx.get_tx_queue(1), rx)
    env.launch(ts.probe_task, PROBES, PROBE_INTERVAL_NS)
    driver.wait_for_slaves(env, DUT_DURATION_NS)

    hist = ts.histogram
    quartiles = list(hist.quartiles()) if len(hist) else []
    counters = dut.counters()
    out = {
        "tx": tx.tx_packets,
        "dut_rx": counters["rx_packets"],
        "dut_dropped": counters["rx_dropped"],
        "dut_crc": counters["rx_crc_errors"],
        "forwarded": counters["forwarded"],
        "interrupts": counters["interrupts"],
        "rx": rx.port.rx_packets,
        "rx_crc": rx.port.rx_crc_errors,
        "in_sent": wire_in.frames_sent,
        "in_flight": wire_in.in_flight,
        "in_dropped": wire_in.dropped,
        "out_sent": wire_out.frames_sent,
        "out_flight": wire_out.in_flight,
        "out_dropped": wire_out.dropped,
        "probes": len(hist),
        "probes_attempted": ts.attempted,
        "probes_lost": ts.lost_probes,
        "latency_q_ns": quartiles,
    }
    return tx.tx_packets, out, env


class ForwarderCalls:
    """Records what each ``simulate_forwarder`` call was fed and returned.

    Installed on the name ``repro.analysis.rfc2544`` calls, in every run:
    it is one extra Python call per trial and yields the arrivals count
    (the workload's simulated packets) and the DuT conservation check.
    """

    def __init__(self) -> None:
        self.last: Optional[dict] = None
        self._orig = None

    def install(self) -> None:
        self._orig = orig = rfc2544.simulate_forwarder

        def simulate_forwarder(arrivals_ns, *args, **kwargs):
            result = orig(arrivals_ns, *args, **kwargs)
            self.last = {"arrivals": int(result.arrivals_ns.size),
                         "dropped": int(result.dropped),
                         "forwarded": result.forwarded}
            return result

        rfc2544.simulate_forwarder = simulate_forwarder

    def uninstall(self) -> None:
        rfc2544.simulate_forwarder = self._orig


# -- checks ------------------------------------------------------------------

def _mismatch(pinned, got, path: str = "") -> Optional[str]:
    """First difference between a pinned value and an output, or None."""
    if isinstance(pinned, dict):
        if not isinstance(got, dict) or set(pinned) != set(got):
            return f"{path}: keys differ"
        for key in pinned:
            err = _mismatch(pinned[key], got[key], f"{path}.{key}")
            if err:
                return err
        return None
    if isinstance(pinned, list):
        if not isinstance(got, list) or len(pinned) != len(got):
            return f"{path}: length differs"
        for i, (a, b) in enumerate(zip(pinned, got)):
            err = _mismatch(a, b, f"{path}[{i}]")
            if err:
                return err
        return None
    if isinstance(pinned, float) or isinstance(got, float):
        ok = math.isclose(pinned, got, rel_tol=1e-9, abs_tol=1e-12)
    else:
        ok = pinned == got
    return None if ok else f"{path}: pinned {pinned!r}, got {got!r}"


def tx_invariants(out: dict) -> Optional[str]:
    """TX = RX + dropped + in-flight, and the rate stays within line rate."""
    if out["tx"] != (out["rx"] + out["rx_crc"] + out["wire_dropped"]
                     + out["in_flight"]):
        return f"tx conservation: {out}"
    if not 0 < out["mpps"] <= units.LINE_RATE_10G_64B_PPS / 1e6 * 1.001:
        return f"rate out of range: {out['mpps']}"
    return None


def dut_invariants(out: dict) -> Optional[str]:
    """DuT accepted + dropped = offered, and TX = RX + dropped + in-flight."""
    offered = out["in_sent"] - out["in_flight"] - out["in_dropped"]
    if out["tx"] != out["in_sent"]:
        return f"port vs wire tx: {out}"
    if out["dut_rx"] + out["dut_dropped"] + out["dut_crc"] != offered:
        return f"DuT accepted + dropped != offered: {out}"
    in_dut = out["dut_rx"] - out["out_sent"]
    dropped = (out["dut_dropped"] + out["dut_crc"] + out["in_dropped"]
               + out["out_dropped"] + out["rx_crc"])
    in_flight = out["in_flight"] + in_dut + out["out_flight"]
    if out["tx"] != out["rx"] + dropped + in_flight or in_dut < 0:
        return f"tx conservation: {out}"
    if out["probes_attempted"] != out["probes"] + out["probes_lost"]:
        return f"probe accounting: {out}"
    return None


def rfc_trial_invariants(out: dict) -> Optional[str]:
    """The DuT model conserves frames and the loss is a fraction."""
    fw = out["forwarder"]
    if fw["forwarded"] + fw["dropped"] != fw["arrivals"]:
        return f"DuT accepted + dropped != offered: {fw}"
    if not math.isclose(out["loss"], fw["dropped"] / fw["arrivals"]):
        return f"loss fraction: {out}"
    return None


def rfc_search_invariants(size: int, result) -> Optional[str]:
    """Binary-search consistency and the Section 8.3 anchor at 64 B."""
    for trial in result.trials:
        if trial.passed != (trial.offered_pps <= result.throughput_pps):
            return f"{size} B: trial {trial} inconsistent with result"
    if size == 64 and not math.isclose(result.throughput_pps,
                                       ZERO_LOSS_64B_PPS,
                                       rel_tol=ZERO_LOSS_REL_TOL):
        return f"64 B zero-loss rate {result.throughput_pps:.0f} pps"
    return None


# -- the closed loop ---------------------------------------------------------

class Deadline(Exception):
    """Raised between ops once the run's time is up."""


class Recorder:
    """Times ops, checks their outputs and counts failures.

    ``check(key, out)`` returns an error string or ``None``; ``outputs``
    keeps every op's outputs (``None`` for one that raised) when asked, for
    the traced run's comparison.  ``probe``, when given, runs after every
    op, outside its timing, and its host seconds land in ``probe_times``.
    """

    def __init__(self, check: Callable[[str, dict], Optional[str]],
                 deadline: Optional[float] = None, min_ops: int = 0,
                 max_ops: Optional[int] = None,
                 keep_outputs: bool = False,
                 observe: Optional[Callable[[object], None]] = None,
                 probe: Optional[Callable[[], float]] = None) -> None:
        self.check = check
        self.deadline = deadline
        self.min_ops = min_ops
        self.max_ops = max_ops
        self.observe = observe
        self.probe = probe
        self.times: List[float] = []
        self.probe_times: List[float] = []
        #: Simulated packets of each op (0 for one that raised).
        self.op_packets: List[int] = []
        self.errors: List[str] = []
        self.outputs: Optional[List] = [] if keep_outputs else None
        self._failed = set()

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def packets(self) -> int:
        return sum(self.op_packets)

    @property
    def failed(self) -> int:
        return len(self._failed)

    def done(self) -> bool:
        n = self.attempted
        if self.max_ops is not None and n >= self.max_ops:
            return True
        return (self.deadline is not None and n >= self.min_ops
                and time.perf_counter() >= self.deadline)

    def fail(self, message: str) -> None:
        """Count the latest op as failed (once, however many checks fail)."""
        self._failed.add(self.attempted - 1)
        if len(self.errors) < 20:
            self.errors.append(message)

    def op(self, key: str, fn: Callable[[], Tuple[int, dict, object]]):
        """Run one op; returns its outputs (``None`` if it raised)."""
        if self.done():
            raise Deadline
        t0 = time.perf_counter()
        error = None
        try:
            packets, out, env = fn()
            if self.observe is not None:
                self.observe(env)
            del env
        except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
            packets, out = 0, None
            error = f"{type(exc).__name__}: {exc}"
        # The op pays for its own cyclic garbage, not whichever later op
        # the collector happens to interrupt.
        gc.collect()
        self.times.append(time.perf_counter() - t0)
        self.op_packets.append(packets)
        if self.probe is not None:
            self.probe_times.append(self.probe())
        if error is not None:
            self.fail(f"{key}: {error}")
            if self.outputs is not None:
                self.outputs.append(None)
            return None
        err = self.check(key, out)
        if err:
            self.fail(f"{key}: {err}")
        if self.outputs is not None:
            self.outputs.append(out)
        return out


class Workload:
    """One workload: its op sequence, its op runner and its checks."""

    name = ""

    def __init__(self, seed: int, pins: Optional[dict] = None) -> None:
        self.seed = seed
        self.pins = pins if seed == DEFAULT_SEED else None

    def subseed(self, cycle: int) -> int:
        return self.seed + cycle % SUBSEEDS

    def check(self, key: str, out: dict) -> Optional[str]:
        if self.pins is None:
            return self.invariants(out)
        pinned = self.pins.get(key)
        if pinned is None:
            return "no pinned value"
        return _mismatch(pinned, out)

    def invariants(self, out: dict) -> Optional[str]:
        raise NotImplementedError

    def run_cycle(self, sub: int, driver: Driver, rec: Recorder) -> None:
        """Run one cycle of ops, walking the input grid once."""
        raise NotImplementedError

    def run(self, driver: Driver, rec: Recorder,
            cycles: Optional[int] = None) -> Recorder:
        """Run ops: ``cycles`` full cycles, or until ``rec`` is done."""
        c = 0
        try:
            while cycles is None or c < cycles:
                self.run_cycle(self.subseed(c), driver, rec)
                c += 1
        except Deadline:
            pass
        return rec

    def warmup(self, driver: Driver) -> None:
        """One untimed op that absorbs lazy imports and first-call costs."""
        self.run(driver, Recorder(lambda k, o: None, max_ops=1), cycles=1)


class TxLinerate(Workload):
    name = "tx_linerate"

    def cycle(self) -> List[Tuple[float, str]]:
        return [(FREQS_HZ[i], script) for i in spread(len(FREQS_HZ), 5)
                for script, _ in SCRIPTS]

    @staticmethod
    def key(sub: int, freq_hz: float, script: str) -> str:
        return f"{sub}/{round(freq_hz / 1e6)}/{script}"

    def invariants(self, out: dict) -> Optional[str]:
        return tx_invariants(out)

    def run_cycle(self, sub, driver, rec):
        for freq, script in self.cycle():
            rec.op(self.key(sub, freq, script),
                   lambda: tx_linerate_op(sub, freq, script, driver))

    def batch_check(self, driver: Driver):
        freq, script = self.cycle()[0]
        return tx_linerate_op(self.subseed(0), freq, script, driver,
                              batch=True)


class DutLatency(Workload):
    name = "dut_latency"

    def cycle(self) -> List[float]:
        return [LOADS_MPPS[i] for i in spread(len(LOADS_MPPS), 7)]

    @staticmethod
    def key(sub: int, load_mpps: float) -> str:
        return f"{sub}/{round(load_mpps * 1000)}"

    def invariants(self, out: dict) -> Optional[str]:
        return dut_invariants(out)

    def run_cycle(self, sub, driver, rec):
        for load in self.cycle():
            rec.op(self.key(sub, load),
                   lambda: dut_latency_op(sub, load, driver))

    def batch_check(self, driver: Driver):
        return dut_latency_op(self.subseed(0), self.cycle()[0], driver,
                              batch=True)


class Rfc2544Search(Workload):
    """Ops are the trials of RFC 2544 searches over :data:`FRAME_SIZES`."""

    name = "rfc2544_search"

    def __init__(self, seed: int, pins: Optional[dict] = None) -> None:
        super().__init__(seed, pins)
        self.calls = ForwarderCalls()
        #: (sub-seed, frame size) -> zero-loss pps of completed searches.
        self.searches: Dict[str, float] = {}

    @staticmethod
    def key(sub: int, size: int, trial: Optional[int] = None) -> str:
        return f"{sub}/{size}" + ("" if trial is None else f"/{trial}")

    def invariants(self, out: dict) -> Optional[str]:
        return rfc_trial_invariants(out)

    def check(self, key: str, out: dict) -> Optional[str]:
        if self.pins is None:
            return self.invariants(out)
        pinned = self.pins["trials"].get(key)
        if pinned is None:
            return "no pinned value"
        return _mismatch(pinned, {k: out[k] for k in ("offered_pps", "loss")})

    def search(self, sub: int, size: int, rec: Recorder) -> None:
        probe = rfc2544.default_loss_probe(
            frame_size=size, duration_s=TRIAL_S, seed=sub, ring_size=DUT_RING)
        trials = []

        def trial(pps: float) -> float:
            def run():
                loss = probe(pps)
                out = {"offered_pps": pps, "loss": loss,
                       "forwarder": self.calls.last}
                return self.calls.last["arrivals"], out, None

            out = rec.op(self.key(sub, size, len(trials)), run)
            trials.append(out)
            # A trial that raised reads as total loss; its op already failed.
            return 1.0 if out is None else out["loss"]

        result = rfc2544.throughput_test(
            trial, units.line_rate_pps(size, units.SPEED_10G),
            frame_size=size, resolution=RESOLUTION)
        key = self.key(sub, size)
        self.searches[key] = result.throughput_pps
        if self.pins is not None:
            err = _mismatch(self.pins["searches"].get(key),
                            result.throughput_pps)
        else:
            err = rfc_search_invariants(size, result)
        if err:
            # The search's outcome is checked with its last trial.
            rec.fail(f"{key} zero-loss rate: {err}")

    def run_cycle(self, sub, driver, rec):
        for size in FRAME_SIZES:
            self.search(sub, size, rec)

    def run(self, driver, rec, cycles=None):
        self.calls.install()
        try:
            return super().run(driver, rec, cycles)
        finally:
            self.calls.uninstall()


WORKLOADS = {w.name: w for w in (TxLinerate, DutLatency, Rfc2544Search)}


def load_pins(path: str = PINS_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


def make(name: str, seed: int, pins: Optional[dict] = None) -> Workload:
    """The workload ``name`` for ``seed`` (pins loaded for the default)."""
    if pins is None and seed == DEFAULT_SEED:
        pins = load_pins()[name]
    return WORKLOADS[name](seed, pins)
