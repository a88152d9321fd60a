"""Tests for the discrete-event loop, processes, and signals."""

import pytest

from repro.errors import SimulationError
from repro.nicsim.eventloop import (
    EventLoop,
    HeapScheduler,
    Process,
    Signal,
    Watchdog,
    wait_any,
)


class TestEventLoop:
    def test_schedule_and_run(self):
        loop = EventLoop()
        fired = []
        loop.schedule(100, lambda: fired.append(loop.now_ps))
        loop.schedule(50, lambda: fired.append(loop.now_ps))
        loop.run()
        assert fired == [50, 100]

    def test_same_time_insertion_order(self):
        loop = EventLoop()
        fired = []
        for i in range(5):
            loop.schedule(10, lambda i=i: fired.append(i))
        loop.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_cancel(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule(10, lambda: fired.append(1))
        event.cancel()
        loop.run()
        assert fired == []

    def test_no_scheduling_into_past(self):
        loop = EventLoop()
        loop.schedule(10, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.schedule_at(5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop().schedule(-1, lambda: None)

    def test_run_until(self):
        loop = EventLoop()
        fired = []
        loop.schedule(100, lambda: fired.append("a"))
        loop.schedule(300, lambda: fired.append("b"))
        loop.run(until_ps=200)
        assert fired == ["a"]
        assert loop.now_ps == 200  # clock advanced to the horizon
        loop.run()
        assert fired == ["a", "b"]

    def test_run_for(self):
        loop = EventLoop()
        loop.run_for(500)
        assert loop.now_ps == 500

    def test_now_ns(self):
        loop = EventLoop()
        loop.schedule(1500, lambda: None)
        loop.run()
        assert loop.now_ns == pytest.approx(1.5)

    def test_event_budget_guard(self):
        loop = EventLoop()

        def reschedule():
            loop.schedule(1, reschedule)

        loop.schedule(1, reschedule)
        with pytest.raises(SimulationError):
            loop.run(max_events=100)

    def test_events_scheduled_during_run(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10, lambda: loop.schedule(10, lambda: fired.append(2)))
        loop.run()
        assert fired == [2] and loop.now_ps == 20


class TestHeapScheduler:
    def test_compaction_on_cancel_churn(self):
        loop = EventLoop()
        heap = loop.scheduler
        keep = [loop.schedule(1000 + i, lambda: None) for i in range(100)]
        dead = [loop.schedule(2000 + i, lambda: None) for i in range(400)]
        for event in dead:
            event.cancel()
        assert heap.compactions >= 1
        # Compaction keeps lingering cancelled entries below half the
        # heap; the live count stays exact throughout.
        assert heap.entry_count() < 2 * len(keep)
        assert loop.pending_events == len(keep)
        loop.run()
        assert loop.pending_events == 0

    @pytest.mark.parametrize("watched", [False, True])
    def test_compaction_during_run_keeps_firing(self, watched):
        """Compaction rebuilds the heap list in place, so a run loop
        holding it in a local still sees every surviving event."""
        loop = EventLoop()
        if watched:
            loop.watchdog = Watchdog()
        fired = []
        dead = [loop.schedule(5000 + i, lambda: None) for i in range(300)]

        def cancel_all():
            for event in dead:
                event.cancel()

        loop.schedule(10, cancel_all)
        for i in range(5):
            loop.schedule(6000 + i, lambda i=i: fired.append(i))
        loop.run()
        assert loop.scheduler.compactions >= 1
        assert fired == [0, 1, 2, 3, 4]
        assert loop.pending_events == 0 and loop.scheduler.entry_count() == 0

    def test_pop_due_respects_bound_without_popping(self):
        loop = EventLoop()
        heap = loop.scheduler
        loop.schedule(100, lambda: None)
        assert heap.pop_due(50) is None
        assert heap.live == 1  # nothing was popped
        assert heap.peek_time() == 100
        event = heap.pop_due(100)
        assert event is not None and event.time_ps == 100
        assert heap.live == 0

    def test_metrics_gauges(self):
        heap = HeapScheduler()
        gauges = heap.metrics()
        assert sorted(gauges) == ["compactions", "entries", "live"]
        assert all(gauges[key]() == 0 for key in gauges)


class TestExactPendingCounts:
    def test_cancel_decrements_exactly_once(self):
        loop = EventLoop()
        event = loop.schedule(100, lambda: None)
        assert loop.pending_events == 1
        event.cancel()
        assert loop.pending_events == 0
        event.cancel()  # double cancel: no double decrement
        assert loop.pending_events == 0

    def test_cancel_after_fire_is_noop(self):
        loop = EventLoop()
        event = loop.schedule(10, lambda: None)
        loop.schedule(100, lambda: None)
        loop.run(until_ps=50)
        event.cancel()  # stale handle: already fired
        assert loop.pending_events == 1

    def test_lane_events_counted(self):
        loop = EventLoop()
        fired = []
        loop.schedule(0, lambda: fired.append(loop.now_ps))
        lane_event = loop.schedule(0, lambda: fired.append(loop.now_ps))
        loop.schedule(10, lambda: None)
        assert loop.pending_events == 3
        assert loop.next_event_time_ps() == 0
        lane_event.cancel()
        assert loop.pending_events == 2
        loop.run()
        assert fired == [0] and loop.pending_events == 0


class TestSignal:
    def test_trigger_wakes_all(self):
        sig = Signal()
        got = []
        sig.wait(got.append)
        sig.wait(got.append)
        sig.trigger("x")
        assert got == ["x", "x"]

    def test_waiters_fire_once(self):
        sig = Signal()
        got = []
        sig.wait(got.append)
        sig.trigger(1)
        sig.trigger(2)
        assert got == [1]

    def test_has_waiters(self):
        sig = Signal()
        assert not sig.has_waiters
        sig.wait(lambda v: None)
        assert sig.has_waiters

    def test_discard_removes_waiter(self):
        sig = Signal()
        got = []
        sig.wait(got.append)
        assert sig.discard(got.append)
        sig.trigger(1)
        assert got == [] and not sig.has_waiters

    def test_discard_missing_waiter_is_noop(self):
        sig = Signal()
        assert not sig.discard(lambda v: None)

    def test_discard_removes_single_registration(self):
        sig = Signal()
        got = []
        sig.wait(got.append)
        sig.wait(got.append)
        sig.discard(got.append)
        sig.trigger("x")
        assert got == ["x"]


class TestProcess:
    def test_delays(self):
        loop = EventLoop()
        trace = []

        def proc():
            trace.append(loop.now_ps)
            yield 100
            trace.append(loop.now_ps)
            yield 50
            trace.append(loop.now_ps)

        loop.spawn(proc())
        loop.run()
        assert trace == [0, 100, 150]

    def test_signal_wait_and_value(self):
        loop = EventLoop()
        sig = Signal()
        got = []

        def waiter():
            value = yield sig
            got.append(value)

        loop.spawn(waiter())
        loop.schedule(10, lambda: sig.trigger("hello"))
        loop.run()
        assert got == ["hello"]

    def test_result(self):
        loop = EventLoop()

        def proc():
            yield 1
            return 42

        p = loop.spawn(proc())
        loop.run()
        assert p.finished and p.result == 42

    def test_error_stored_and_reraised(self):
        loop = EventLoop()

        def proc():
            yield 1
            raise ValueError("boom")

        p = loop.spawn(proc())
        loop.run()
        assert p.finished
        with pytest.raises(ValueError):
            p.check()

    def test_unsupported_yield(self):
        loop = EventLoop()

        def proc():
            yield "nonsense"

        p = loop.spawn(proc())
        loop.run()
        with pytest.raises(SimulationError):
            p.check()

    def test_yield_none_reschedules(self):
        loop = EventLoop()
        trace = []

        def proc():
            yield None
            trace.append(loop.now_ps)

        loop.spawn(proc())
        loop.run()
        assert trace == [0]

    def test_kill_parked_process(self):
        loop = EventLoop()
        sig = Signal()

        def proc():
            yield sig

        p = loop.spawn(proc())
        loop.run()
        assert not p.finished
        p.kill()
        assert p.finished

    def test_kill_drops_waiter_registration(self):
        """Killing a parked process deregisters it from the signal, so the
        signal neither retains the dead process nor resumes it later."""
        loop = EventLoop()
        sig = Signal()

        def proc():
            yield sig

        p = loop.spawn(proc())
        loop.run()
        assert sig.has_waiters
        p.kill()
        assert not sig.has_waiters
        sig.trigger("late")  # must not blow up or resurrect the process
        assert p.finished and p.error is None

    def test_kill_unparked_process_safe(self):
        loop = EventLoop()

        def proc():
            yield 100
            yield 100

        p = loop.spawn(proc())
        loop.run(until_ps=150)
        p.kill()
        assert p.finished
        loop.run()  # the pending resume event is a harmless no-op

    def test_done_signal(self):
        loop = EventLoop()
        done = []

        def child():
            yield 10
            return "ok"

        def parent(child_proc):
            value = yield child_proc.done_signal
            done.append(value)

        c = loop.spawn(child())
        loop.spawn(parent(c))
        loop.run()
        assert done == ["ok"]


class TestWaitAny:
    def test_signal_wins(self):
        loop = EventLoop()
        sig = Signal()
        got = []

        def proc():
            value = yield wait_any(loop, [sig], timeout_ps=1000)
            got.append((value, loop.now_ps))

        loop.spawn(proc())
        loop.schedule(100, lambda: sig.trigger("sig"))
        loop.run()
        assert got == [("sig", 100)]

    def test_timeout_wins(self):
        loop = EventLoop()
        sig = Signal()
        got = []

        def proc():
            value = yield wait_any(loop, [sig], timeout_ps=100)
            got.append((value, loop.now_ps))

        loop.spawn(proc())
        loop.run()
        assert got == [(None, 100)]

    def test_fires_only_once(self):
        loop = EventLoop()
        sig = Signal()
        count = []
        combined = wait_any(loop, [sig], timeout_ps=100)
        combined.wait(lambda v: count.append(v))
        loop.schedule(50, lambda: sig.trigger("first"))
        loop.run()
        assert count == ["first"]

    def test_signal_win_cancels_timeout_event(self):
        """When a signal wins, the pending timeout event is cancelled and
        never fires: the loop goes quiet at the win time, not the timeout."""
        loop = EventLoop()
        sig = Signal()
        got = []
        combined = wait_any(loop, [sig], timeout_ps=10_000)
        combined.wait(got.append)
        loop.schedule(100, lambda: sig.trigger("sig"))
        loop.run()
        assert got == ["sig"]
        assert loop.now_ps == 100  # the cancelled timeout never advanced time

    def test_timeout_deregisters_from_sources(self):
        """When the timeout wins, the combiner is removed from every source
        signal — repeated wait_any calls on long-lived signals must not
        accumulate dead waiters (the recv-poll leak)."""
        loop = EventLoop()
        sig = Signal()
        for _ in range(50):
            wait_any(loop, [sig], timeout_ps=10)
            loop.run()
        assert not sig.has_waiters

    def test_signal_win_deregisters_from_other_sources(self):
        loop = EventLoop()
        winner, loser = Signal(), Signal()
        got = []
        combined = wait_any(loop, [winner, loser], timeout_ps=1000)
        combined.wait(got.append)
        winner.trigger("w")
        assert got == ["w"]
        assert not loser.has_waiters and not winner.has_waiters

    def test_wait_any_without_timeout(self):
        loop = EventLoop()
        a, b = Signal(), Signal()
        got = []
        combined = wait_any(loop, [a, b])
        combined.wait(got.append)
        b.trigger("b")
        a.trigger("a")  # late straggler: ignored, combiner already gone
        assert got == ["b"]
        assert not a.has_waiters and not b.has_waiters


class TestNumericYields:
    def test_float_yields_truncate(self):
        """Float delays (ns-scale math) are accepted and truncate toward
        zero — the regression pin for the once-dead float branch in
        ``Process._advance`` (it was shadowed by the int check)."""
        loop = EventLoop()
        trace = []

        def proc():
            yield 100.9
            trace.append(loop.now_ps)
            yield 0.4
            trace.append(loop.now_ps)

        loop.spawn(proc())
        loop.run()
        assert trace == [100, 100]

    def test_bool_yield_is_a_delay(self):
        """bool subclasses int: True is a 1 ps sleep, not an error."""
        loop = EventLoop()
        trace = []

        def proc():
            yield True
            trace.append(loop.now_ps)

        loop.spawn(proc())
        loop.run()
        assert trace == [1]


class TestWaitAnyCombiner:
    def test_single_object_registered_everywhere(self):
        """One combiner object (not per-signal closures) is the waiter on
        every source signal, and it doubles as the timeout callback."""
        loop = EventLoop()
        a, b = Signal(), Signal()
        wait_any(loop, [a, b], timeout_ps=500)
        assert len(a._waiters) == 1 and len(b._waiters) == 1
        assert a._waiters[0] is b._waiters[0]
        combiner = a._waiters[0]
        assert type(combiner).__qualname__.startswith("wait_any")

    def test_win_deregisters_and_cancels_timeout(self):
        """Deregistration contract: the winning trigger removes the
        combiner from every source and cancels the timeout event."""
        loop = EventLoop()
        a, b = Signal(), Signal()
        got = []
        combined = wait_any(loop, [a, b], timeout_ps=500)
        combined.wait(got.append)
        combiner = a._waiters[0]
        assert loop.pending_events == 1  # the armed timeout
        a.trigger("win")
        assert got == ["win"]
        assert not a.has_waiters and not b.has_waiters
        assert combiner.timeout_event.cancelled
        assert loop.pending_events == 0  # cancel decremented exactly once

    def test_straggler_trigger_is_noop(self):
        loop = EventLoop()
        a, b = Signal(), Signal()
        got = []
        combined = wait_any(loop, [a, b])
        combined.wait(got.append)
        combiner = a._waiters[0]
        a.trigger("first")
        combiner("late-direct-call")  # fired latch: must do nothing
        assert got == ["first"]
