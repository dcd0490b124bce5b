"""Kernel semantics: clock, event lifecycle, scheduling order."""

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.core import all_processed


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_until_advances_exactly_to_until(self, sim):
        sim.timeout(0.25)
        sim.run(until=1.0)
        assert sim.now == 1.0

    def test_run_until_past_is_rejected(self, sim):
        sim.timeout(5.0)
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_run_without_until_drains_queue(self, sim):
        sim.timeout(3.0)
        sim.run()
        assert sim.now == 3.0
        assert sim.pending_events() == 0

    def test_events_beyond_until_stay_queued(self, sim):
        sim.timeout(5.0)
        sim.run(until=1.0)
        assert sim.pending_events() == 1
        assert sim.peek() == 5.0

    def test_peek_empty_queue_is_inf(self, sim):
        assert sim.peek() == float("inf")


class TestEventLifecycle:
    def test_fresh_event_is_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_trigger_then_run_processes(self, sim):
        ev = sim.event()
        ev.trigger("payload")
        assert ev.triggered and not ev.processed
        sim.run()
        assert ev.processed
        assert ev.value == "payload"

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.trigger()
        with pytest.raises(SimulationError):
            ev.trigger()

    def test_fail_then_value_raises(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        sim.run()
        with pytest.raises(ValueError, match="boom"):
            _ = ev.value

    def test_fail_requires_exception_instance(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_ok_reflects_success(self, sim):
        good, bad = sim.event(), sim.event()
        good.trigger(1)
        bad.fail(RuntimeError())
        assert good.ok
        assert not bad.ok

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.trigger(7)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_delayed_trigger(self, sim):
        ev = sim.event()
        ev.trigger("late", delay=2.5)
        times = []
        ev.add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == [2.5]


class TestOrdering:
    def test_fifo_among_equal_times(self, sim):
        order = []
        for label in "abc":
            sim.schedule_call(1.0, order.append, label)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_time_order_respected(self, sim):
        order = []
        sim.schedule_call(2.0, order.append, "late")
        sim.schedule_call(1.0, order.append, "early")
        sim.run()
        assert order == ["early", "late"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_call(-0.1, lambda: None)

    def test_timeout_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_run_dispatches_in_step_order(self):
        # run()'s inlined loop must pop exactly what repeated step()
        # calls pop: (time, priority, sequence), cancellations skipped.
        def build():
            sim = Simulator()
            log = []
            for label, t in enumerate([0.3, 0.1, 0.3, 0.0, 0.2, 0.1]):
                sim.schedule_call(t, log.append, (t, label))
            sim.timeout(0.1).cancel()

            def proc():
                log.append(("proc", sim.now))
                yield sim.timeout(0.1)
                log.append(("proc", sim.now))

            sim.process(proc())
            return sim, log

        stepped, step_log = build()
        while stepped.pending_events():
            stepped.step()
        ran, run_log = build()
        ran.run()
        assert run_log == step_log
        assert (ran.now, ran.events_processed) == (
            stepped.now,
            stepped.events_processed,
        )

    def test_step_processes_one_event(self, sim):
        hits = []
        sim.schedule_call(1.0, hits.append, 1)
        sim.schedule_call(2.0, hits.append, 2)
        sim.step()
        assert hits == [1]
        assert sim.now == 1.0


class TestRunGuards:
    def test_run_until_idle_counts_events(self, sim):
        for _ in range(5):
            sim.timeout(1.0)
        assert sim.run_until_idle() == 5

    def test_run_until_idle_guard_trips(self, sim):
        def forever():
            while True:
                yield sim.timeout(1.0)

        sim.process(forever())
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=50)

    def test_all_processed_helper(self, sim):
        events = [sim.timeout(1.0), sim.timeout(2.0)]
        assert not all_processed(events)
        sim.run()
        assert all_processed(events)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def trace():
            sim = Simulator()
            log = []

            def proc(name, period):
                while sim.now < 1.0:
                    yield sim.timeout(period)
                    log.append((round(sim.now, 9), name))

            sim.process(proc("a", 0.13))
            sim.process(proc("b", 0.07))
            sim.run(until=1.0)
            return log

        assert trace() == trace()


class TestCancellation:
    def test_cancelled_timeout_never_fires(self, sim):
        hits = []
        doomed = sim.timeout(1.0)
        doomed.add_callback(lambda ev: hits.append("doomed"))
        sim.schedule_call(2.0, hits.append, "kept")
        doomed.cancel()
        sim.run()
        assert hits == ["kept"]
        assert doomed.cancelled and not doomed.processed

    def test_cancelled_entry_does_not_advance_clock_or_count(self, sim):
        sim.timeout(5.0).cancel()
        sim.schedule_call(1.0, lambda: None)
        assert sim.run_until_idle() == 1
        assert sim.now == 1.0
        assert sim.events_processed == 1

    def test_cancel_is_idempotent_but_processed_is_final(self, sim):
        ev = sim.timeout(1.0)
        ev.cancel()
        ev.cancel()  # no-op
        done = sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            done.cancel()

    def test_cancelled_event_rejects_trigger_and_fail(self, sim):
        from repro.sim.core import Event

        ev = Event(sim)
        ev.cancel()
        assert not ev.triggered
        with pytest.raises(SimulationError):
            ev.trigger(1)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))


class TestNegativeDelayLeavesEventPending:
    """A rejected trigger/fail must not half-commit the event."""

    @pytest.mark.parametrize("how", ["trigger", "fail"])
    def test_rejected_then_retried(self, sim, how):
        ev = sim.event()
        settle = (
            (lambda delay: ev.trigger("ok", delay=delay))
            if how == "trigger"
            else (lambda delay: ev.fail(RuntimeError("boom"), delay=delay))
        )
        with pytest.raises(SimulationError, match="past"):
            settle(-1.0)
        assert not ev.triggered
        assert sim.pending_events() == 0

        seen = []

        def waiter():
            try:
                seen.append((yield ev))
            except RuntimeError as exc:
                seen.append(str(exc))

        sim.process(waiter())
        settle(0.5)  # the retry must not raise "event triggered twice"
        sim.run()
        assert seen == (["ok"] if how == "trigger" else ["boom"])
        assert sim.now == 0.5


class TestCallEntries:
    def test_cancelled_call_is_skipped_without_moving_clock_or_count(self, sim):
        hits = []
        doomed = sim.schedule_call(5.0, hits.append, "doomed")
        sim.schedule_call(1.0, hits.append, "kept")
        assert doomed.cancel() is doomed
        doomed.cancel()  # idempotent until it has run
        sim.run()
        assert hits == ["kept"]
        assert (sim.now, sim.events_processed) == (1.0, 1)
        assert sim.pending_events() == 0

    def test_processed_call_cannot_be_cancelled(self, sim):
        call = sim.schedule_call_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            call.cancel()

    def test_calls_and_events_at_one_instant_fire_in_scheduling_order(self, sim):
        order = []
        sim.schedule_call(1.0, order.append, "call-1")
        sim.timeout(1.0).add_callback(lambda ev: order.append("timeout"))
        sim.schedule_call_at(1.0, order.append, "call-at")
        sim.event().trigger(delay=1.0).add_callback(
            lambda ev: order.append("trigger")
        )
        sim.wake_at(1.0).add_callback(lambda ev: order.append("wake"))
        sim.schedule_call(1.0, order.append, "call-2")
        sim.run()
        assert order == [
            "call-1", "timeout", "call-at", "trigger", "wake", "call-2",
        ]
        assert sim.events_processed == 6

    def test_negative_delay_rejected_before_anything_is_queued(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_call(-1e-9, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_call_at(-1.0, lambda: None)
        assert sim.pending_events() == 0
        sim.schedule_call(0.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1
