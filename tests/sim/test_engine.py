"""Unit tests for the discrete-event engine."""

import linecache
import traceback
from pathlib import Path

import pytest

from repro.sim import (
    AnyOf,
    Event,
    Simulator,
    SimulationError,
    Timeout,
    engine,
)


def run_to_end(sim):
    sim.run(until=1e9)


class TestTimeAdvance:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_time(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(12.5)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 12.5
        assert sim.now == 12.5

    def test_zero_delay_timeout(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(0.0)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 0.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_run_until_stops_early(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(100.0)

        sim.process(proc())
        sim.run(until=40.0)
        assert sim.now == 40.0

    def test_run_until_past_raises(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(100.0)

        sim.process(proc())
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=50.0)

    def test_same_time_fifo_order(self):
        sim = Simulator()
        order = []

        def proc(tag):
            yield sim.timeout(5.0)
            order.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == 3.0


class TestEvents:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event()

        def waiter():
            value = yield ev
            return value

        def trigger():
            yield sim.timeout(1.0)
            ev.succeed("payload")

        p = sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert p.value == "payload"

    def test_double_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_propagates_into_process(self):
        sim = Simulator()
        ev = sim.event()

        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        def trigger():
            yield sim.timeout(1.0)
            ev.fail(RuntimeError("boom"))

        p = sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert p.value == "caught boom"

    def test_unhandled_failure_crashes_run(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(RuntimeError("nobody listens"))
        with pytest.raises(RuntimeError, match="nobody listens"):
            sim.run()

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_waiting_on_processed_event(self):
        """Yielding an already-processed event resumes immediately."""
        sim = Simulator()
        ev = sim.event()
        ev.succeed("早い")
        sim.run()
        assert ev.processed

        def late_waiter():
            value = yield ev
            return (sim.now, value)

        p = sim.process(late_waiter())
        sim.run()
        assert p.value == (0.0, "早い")


class TestProcesses:
    def test_return_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return 42

        p = sim.process(proc())
        sim.run()
        assert p.value == 42
        assert not p.is_alive

    def test_process_is_waitable(self):
        sim = Simulator()

        def child():
            yield sim.timeout(7.0)
            return "done"

        def parent():
            result = yield sim.process(child())
            return (sim.now, result)

        p = sim.process(parent())
        sim.run()
        assert p.value == (7.0, "done")

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            raise ValueError("child failed")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return str(exc)

        p = sim.process(parent())
        sim.run()
        assert p.value == "child failed"

    def test_unhandled_process_exception_crashes_run(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise KeyError("oops")

        sim.process(bad())
        with pytest.raises(KeyError):
            sim.run()

    def test_yield_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 5

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_caught_non_event_error_resumes(self):
        sim = Simulator()

        def recovers():
            try:
                yield 5
            except SimulationError:
                yield sim.timeout(1.0)
            return "done"

        proc = sim.process(recovers())
        sim.run()
        assert not proc.is_alive
        assert proc.value == "done"
        assert sim.now == 1.0

    def test_requires_generator(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.process(lambda: None)


class TestConditions:
    def test_any_of_first_wins(self):
        sim = Simulator()

        def proc():
            fast = sim.timeout(5.0, value="fast")
            slow = sim.timeout(50.0, value="slow")
            result = yield AnyOf(sim, [fast, slow])
            return (sim.now, list(result.values()))

        p = sim.process(proc())
        sim.run()
        assert p.value == (5.0, ["fast"])


class TestDeterminism:
    def test_two_identical_runs_agree(self):
        def build():
            sim = Simulator()
            log = []

            def worker(n):
                for i in range(n):
                    yield sim.timeout(1.5 * (i + 1))
                    log.append((sim.now, n, i))

            for n in (3, 4, 5):
                sim.process(worker(n))
            sim.run()
            return log

        assert build() == build()


class TestScheduleCallback:
    def test_callback_fires_at_delay(self):
        sim = Simulator()
        fired = []
        sim.schedule_callback(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_callback_args_passed_through(self):
        sim = Simulator()
        got = []
        sim.schedule_callback(1.0, lambda a, b: got.append((a, b)), "x", 2)
        sim.run()
        assert got == [("x", 2)]

    def test_callbacks_interleave_with_events_fifo(self):
        sim = Simulator()
        order = []

        def proc():
            yield sim.timeout(10.0)
            order.append("process")

        sim.schedule_callback(10.0, lambda: order.append("early"))
        sim.process(proc())
        sim.schedule_callback(10.0, lambda: order.append("late"))
        sim.run()
        # same instant: strict scheduling order, regardless of kind.  The
        # process's timeout is scheduled when the generator first runs (at
        # t=0), after both callbacks were pushed.
        assert order == ["early", "late", "process"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_callback(-1.0, lambda: None)

    def test_absolute_variant_rejects_past(self):
        sim = Simulator()
        sim.schedule_callback(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_callback_at(1.0, lambda: None)

    def test_schedule_event_at_rejects_past(self):
        # The internal absolute-time event path used to silently accept
        # when < now, breaking causality; it must raise.
        sim = Simulator()
        sim.schedule_callback(5.0, lambda: None)
        sim.run()
        event = Event(sim)
        event._ok = True
        with pytest.raises(SimulationError):
            sim._schedule_event_at(event, 1.0)

    def test_trigger_with_negative_delay_rejects_past(self):
        sim = Simulator()
        event = sim.event()
        with pytest.raises(SimulationError):
            event.succeed(delay=-1.0)

    def test_run_until_stops_before_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule_callback(10.0, lambda: fired.append(True))
        sim.run(until=5.0)
        assert fired == [] and sim.now == 5.0
        sim.run()
        assert fired == [True]


class TestRunLoopSource:
    """The run loop is ordinary source in engine.py, so tracebacks,
    profilers and sampling tools name real lines of a real file."""

    @pytest.mark.parametrize("until", [None, 100.0])
    def test_callback_exception_traceback_names_engine_source(self, until):
        sim = Simulator()

        def boom():
            raise KeyError("boom")

        sim.schedule_callback(1.0, boom)
        with pytest.raises(KeyError) as info:
            sim.run(until=until)
        tb = list(traceback.walk_tb(info.value.__traceback__))
        files = [frame.f_code.co_filename for frame, _ in tb]
        assert not [f for f in files if f.startswith("<repro.sim.engine")]
        (caller, lineno), (callee, _) = tb[-2], tb[-1]
        assert callee.f_code is boom.__code__
        assert Path(caller.f_code.co_filename) == Path(engine.__file__)
        assert caller.f_code.co_name == "run"
        line = linecache.getline(caller.f_code.co_filename, lineno)
        assert line.strip() == "p()"


class TestConditionsOverProcessedEvents:
    def test_anyof_with_pre_processed_event_fires_immediately(self):
        sim = Simulator()
        early = sim.timeout(0.0, "early")
        sim.run()
        assert early.processed
        late = sim.timeout(50.0, "late")

        def waiter():
            result = yield AnyOf(sim, [early, late])
            return sim.now, result

        p = sim.process(waiter())
        sim.run()
        when, result = p.value
        assert when == 0.0
        assert result == {early: "early"}


class TestProcessExit:
    def test_attached_waiter_resumes_at_exit_entry_position(self):
        """The exit entry of an observed process is scheduled when it
        ends: same-instant entries scheduled before it run first, later
        ones after it."""
        sim = Simulator()
        log = []

        def child():
            yield sim.timeout(5.0)
            return "v"

        def parent(c):
            value = yield c
            log.append(("parent", value))

        def bystander():
            yield sim.timeout(5.0)
            log.append("bystander")
            yield sim.timeout(0.0)
            log.append("bystander again")

        c = sim.process(child())
        sim.process(parent(c))
        sim.process(bystander())
        sim.run()
        assert log == ["bystander", ("parent", "v"), "bystander again"]

    @pytest.mark.parametrize("delay", [0.0, 4.0])
    def test_yield_after_exit_resumes_with_return_value(self, delay):
        sim = Simulator()

        def child():
            yield sim.timeout(5.0)
            return "v"

        c = sim.process(child())

        def late():
            yield sim.timeout(5.0 + delay)
            assert c.processed
            value = yield c
            return (sim.now, value)

        p = sim.process(late())
        sim.run()
        assert p.value == (5.0 + delay, "v")

    def test_unobserved_exit_schedules_nothing(self):
        def run(observed):
            sim = Simulator()

            def proc():
                yield sim.timeout(1.0)
                return 3

            p = sim.process(proc())
            if observed:
                p.callbacks.append(lambda event: None)
            sim.run()
            assert p.value == 3 and p.processed
            return sim.events_processed

        assert run(observed=False) == run(observed=True) - 1

    def test_unobserved_failure_still_surfaces(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            raise KeyError("lost")

        sim.process(proc())
        with pytest.raises(KeyError):
            sim.run()
