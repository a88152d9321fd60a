"""Property-based tests (hypothesis) for the event loop and processes.

These pin the scheduler invariants every simulation result rests on:

* events scheduled for the same instant fire in insertion order,
* a cancelled event never fires,
* ``run(until_ps)`` never executes an event beyond the horizon,
* the inlined heap run loop and the watched run loop fire the same
  events in the same order with the same clocks and live counts,
* arbitrary interleavings of ``spawn``/``Signal.trigger`` are
  deterministic: two identical runs produce byte-identical traces,
* killing a parked process drops its waiter registration (no leaks).
"""

from hypothesis import example, given, settings, strategies as st

from repro.nicsim.eventloop import EventLoop, Signal, Watchdog, wait_any
from tests._hypothesis_profiles import property_settings
from repro.trace import Tracer

SETTINGS = property_settings()
#: Run-loop parity programs are cheap (no simulation), so they get a
#: bigger budget than the standard property test.
PARITY = property_settings(200)


class TestSchedulerProperties:
    @settings(**SETTINGS)
    @given(st.lists(st.integers(min_value=0, max_value=5),
                    min_size=1, max_size=40))
    def test_same_instant_events_fire_in_insertion_order(self, delays):
        """Equal-time events keep insertion order; overall order is a
        stable sort by scheduled time."""
        loop = EventLoop()
        fired = []
        for i, delay in enumerate(delays):
            loop.schedule(delay, lambda i=i: fired.append(i))
        loop.run()
        expected = [i for _, i in sorted(
            (delay, i) for i, delay in enumerate(delays))]
        assert fired == expected

    @settings(**SETTINGS)
    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=30),
           st.sets(st.integers(min_value=0, max_value=29)))
    def test_cancelled_events_never_fire(self, delays, cancel_idx):
        loop = EventLoop()
        fired = []
        events = [loop.schedule(d, lambda i=i: fired.append(i))
                  for i, d in enumerate(delays)]
        for i in cancel_idx:
            if i < len(events):
                events[i].cancel()
        loop.run()
        cancelled = {i for i in cancel_idx if i < len(delays)}
        assert set(fired) == set(range(len(delays))) - cancelled

    @settings(**SETTINGS)
    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=30),
           st.integers(min_value=0, max_value=1000))
    def test_run_until_never_overshoots(self, delays, until):
        loop = EventLoop()
        fired = []
        for d in delays:
            loop.schedule(d, lambda d=d: fired.append(d))
        loop.run(until_ps=until)
        assert all(t <= until for t in fired)
        assert loop.now_ps == until  # clock lands exactly on the horizon
        # The rest still fires afterwards — nothing was lost, only deferred.
        loop.run()
        assert sorted(fired) == sorted(delays)

    @settings(**SETTINGS)
    @given(st.lists(st.integers(min_value=1, max_value=500),
                    min_size=1, max_size=10))
    def test_process_sleep_sums(self, sleeps):
        """A process yielding delays finishes at exactly their sum."""
        loop = EventLoop()
        finished_at = []

        def proc():
            for s in sleeps:
                yield s
            finished_at.append(loop.now_ps)

        loop.spawn(proc())
        loop.run()
        assert finished_at == [sum(sleeps)]


# One interleaving "program": processes wait on signals or sleep, external
# events trigger signals at arbitrary times.
program = st.builds(
    dict,
    n_signals=st.integers(min_value=1, max_value=4),
    procs=st.lists(  # per process: list of (kind, arg) steps
        st.lists(st.tuples(st.sampled_from(["sleep", "wait", "yield"]),
                           st.integers(min_value=0, max_value=200)),
                 min_size=1, max_size=5),
        min_size=1, max_size=4),
    triggers=st.lists(  # (delay_ps, signal_idx, value)
        st.tuples(st.integers(min_value=0, max_value=400),
                  st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=9)),
        min_size=1, max_size=8),
)


def run_program(spec):
    """Execute one randomized spawn/trigger interleaving under tracing."""
    loop = EventLoop()
    tracer = Tracer().bind(loop)
    signals = [Signal() for _ in range(spec["n_signals"])]
    log = []

    def make_proc(pid, steps):
        def proc():
            for kind, arg in steps:
                if kind == "sleep":
                    yield arg
                elif kind == "wait":
                    value = yield wait_any(
                        loop, [signals[arg % len(signals)]], timeout_ps=300)
                    log.append((pid, loop.now_ps, value))
                else:
                    yield None
            log.append((pid, loop.now_ps, "done"))
        return proc

    for pid, steps in enumerate(spec["procs"]):
        loop.spawn(make_proc(pid, steps)(), name=f"p{pid}")
    for delay, idx, value in spec["triggers"]:
        loop.schedule(delay, lambda i=idx, v=value:
                      signals[i % len(signals)].trigger(v))
    loop.run()
    return log, tracer.to_jsonl()


class TestInterleavingDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(program)
    def test_identical_runs_produce_identical_traces(self, spec):
        log_a, trace_a = run_program(spec)
        log_b, trace_b = run_program(spec)
        assert log_a == log_b
        assert trace_a == trace_b

    @settings(max_examples=30, deadline=None)
    @given(program)
    def test_all_processes_terminate(self, spec):
        """wait_any timeouts guarantee no program parks forever."""
        log, _ = run_program(spec)
        done = [entry for entry in log if entry[2] == "done"]
        assert len(done) == len(spec["procs"])


class TestWaiterHygieneProperties:
    @settings(**SETTINGS)
    @given(st.integers(min_value=1, max_value=8))
    def test_killed_parked_processes_leave_no_waiters(self, n_procs):
        loop = EventLoop()
        sig = Signal()

        def proc():
            yield sig

        procs = [loop.spawn(proc()) for _ in range(n_procs)]
        loop.run()
        assert len(sig._waiters) == n_procs
        for p in procs:
            p.kill()
        assert not sig.has_waiters

    @settings(**SETTINGS)
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=4))
    def test_wait_any_deregisters_losers(self, n_signals, winner):
        """After any source wins, no source signal retains the combiner."""
        loop = EventLoop()
        signals = [Signal() for _ in range(n_signals)]
        got = []
        combined = wait_any(loop, signals, timeout_ps=1000)
        combined.wait(got.append)
        signals[winner % n_signals].trigger("win")
        assert got == ["win"]
        assert not any(s.has_waiters for s in signals)


# One run-loop parity "program": arbitrary interleavings of schedule /
# cancel / run(until) / step, replayed on the inlined heap loop and on the
# watched loop (which pops through HeapScheduler.pop_due).
# Small delays make equal-time heap entries common, and "follow" events
# schedule a same-instant lane event when they fire, so both loops must
# order heap entries at `now` before lane entries.
_delays = st.one_of(st.integers(min_value=0, max_value=8),
                    st.integers(min_value=0, max_value=20_000))
parity_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _delays),
        st.tuples(st.just("follow"), _delays),
        st.tuples(st.just("cancel"),
                  st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("run_until"),
                  st.integers(min_value=0, max_value=30_000)),
        st.tuples(st.just("step"), st.just(0)),
    ),
    min_size=1, max_size=60)


def _drive_loop(watched, ops):
    """Replay one op sequence; returns every observable the loop exposes.

    ``watched`` arms a guard-less :class:`Watchdog`, which routes every
    ``run()`` through ``_run_watched`` instead of the inlined ``_run_heap``.
    """
    loop = EventLoop()
    if watched:
        loop.watchdog = Watchdog()
    fired = []
    handles = []
    observed = []
    for tag, (kind, arg) in enumerate(ops):
        if kind == "schedule":
            handles.append(
                loop.schedule(arg, lambda t=tag: fired.append((t, loop.now_ps))))
        elif kind == "follow":
            def follow(t=tag):
                fired.append((t, loop.now_ps))
                loop.schedule(0, lambda: fired.append((-t, loop.now_ps)))
            handles.append(loop.schedule(arg, follow))
        elif kind == "cancel" and handles:
            handles[arg % len(handles)].cancel()
        elif kind == "run_until":
            loop.run(until_ps=loop.now_ps + arg)
        elif kind == "step":
            loop.step()
        observed.append(
            (loop.now_ps, loop.pending_events, loop.next_event_time_ps()))
    loop.run()
    return fired, observed, loop.now_ps, loop.pending_events, \
        loop.events_processed


class TestRunLoopParity:
    @settings(**PARITY)
    @given(parity_ops)
    # A heap entry still due at `now` must fire before the lane event the
    # first one scheduled on firing.
    @example([("follow", 5), ("schedule", 5), ("run_until", 10)])
    def test_inlined_and_watched_loops_bit_identical(self, ops):
        """Arbitrary schedule/cancel/run(until)/step interleavings produce
        the same fire order, clocks, live counts, and next-event times on
        the inlined heap loop and on the watched ``pop_due`` loop."""
        assert _drive_loop(False, ops) == _drive_loop(True, ops)

    @settings(**PARITY)
    @given(parity_ops)
    def test_heap_drains_exactly(self, ops):
        """After a full drain the heap's exact live count is zero and no
        entry lingers, not even a lazily-cancelled one."""
        for watched in (False, True):
            loop = EventLoop()
            if watched:
                loop.watchdog = Watchdog()
            handles = []
            for kind, arg in ops:
                if kind in ("schedule", "follow"):
                    handles.append(loop.schedule(arg, lambda: None))
                elif kind == "cancel" and handles:
                    handles[arg % len(handles)].cancel()
            loop.run()
            heap = loop.scheduler
            assert loop.pending_events == 0
            assert heap.live == 0 and heap.peek_time() is None
            assert heap.entry_count() == 0 and heap._cancelled_pending == 0
