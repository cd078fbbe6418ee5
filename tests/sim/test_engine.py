"""Unit tests for the discrete-event engine."""

import linecache
import traceback
from pathlib import Path

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
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
            yield 5  # simlint: disable=yield-event

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_interrupt(self):
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(1000.0)
            except Interrupt as intr:
                return ("interrupted", sim.now, intr.cause)

        def interrupter(target):
            yield sim.timeout(10.0)
            target.interrupt("wake up")

        p = sim.process(sleeper())
        sim.process(interrupter(p))
        sim.run()
        assert p.value == ("interrupted", 10.0, "wake up")

    def test_interrupt_dead_process_raises(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

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

    def test_all_of_waits_for_all(self):
        sim = Simulator()

        def proc():
            a = sim.timeout(5.0, value="a")
            b = sim.timeout(50.0, value="b")
            result = yield AllOf(sim, [a, b])
            return (sim.now, sorted(result.values()))

        p = sim.process(proc())
        sim.run()
        assert p.value == (50.0, ["a", "b"])

    def test_empty_all_of_fires_immediately(self):
        sim = Simulator()

        def proc():
            yield AllOf(sim, [])
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 0.0

    def test_any_of_helper_method(self):
        sim = Simulator()

        def proc():
            result = yield sim.any_of([sim.timeout(3.0, "x"), sim.event()])
            return list(result.values())

        p = sim.process(proc())
        sim.run(until=10.0)
        assert p.value == ["x"]


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


class TestStepErrors:
    def test_step_on_empty_schedule_raises_simulation_error(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="empty schedule"):
            sim.step()

    def test_step_error_is_not_a_bare_index_error(self):
        sim = Simulator()
        try:
            sim.step()
        except SimulationError:
            pass  # SimulationError subclasses RuntimeError, not IndexError
        assert isinstance(SimulationError("x"), RuntimeError)


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


class TestInterruptRaces:
    def test_interrupt_beats_simultaneous_succeed(self):
        """Interrupting a process whose wait target succeeded in the same
        instant (but has not yet been processed) delivers the interrupt:
        interrupt() detaches the victim from its target."""
        sim = Simulator()
        gate = Event(sim)

        def victim():
            try:
                value = yield gate
                return value
            except Interrupt as intr:
                return ("interrupted", intr.cause)

        p = sim.process(victim())

        def attacker():
            yield sim.timeout(5.0)
            gate.succeed("done")
            p.interrupt("won the race")

        sim.process(attacker())
        sim.run()
        assert p.value == ("interrupted", "won the race")
        assert gate.processed and gate.value == "done"

    def test_interrupt_defused_when_victim_finishes_same_instant(self):
        """An interrupt scheduled while the victim is alive, but processed
        after the victim already finished in the same instant, is defused
        rather than surfacing as an unhandled failure."""
        sim = Simulator()
        early = sim.timeout(0.0, "early-value")
        sim.run()

        def victim():
            yield sim.timeout(1.0)
            value = yield early  # already processed: resumes via a stub
            return value

        p = sim.process(victim())

        def attacker():
            yield sim.timeout(1.0)
            # The victim's resume stub is already on the heap ahead of the
            # interrupt event, so the victim finishes first.
            p.interrupt("too late")

        sim.process(attacker())
        sim.run()  # the defused interrupt must not raise
        assert p.ok and p.value == "early-value"

    def test_interrupt_while_target_already_processed(self):
        """Interrupting a process whose wait target has already been
        processed (the stub-event resume window) still delivers."""
        sim = Simulator()
        early = sim.timeout(0.0, "early-value")
        log = []

        def victim():
            yield sim.timeout(1.0)
            try:
                value = yield early  # processed long ago: stub path
                log.append(value)
                yield sim.timeout(100.0)
            except Interrupt as intr:
                return ("interrupted", intr.cause)
            return "never"

        p = sim.process(victim())

        def attacker():
            yield sim.timeout(1.0)
            # victim's _target is the already-processed `early` event
            p.interrupt("now")

        sim.process(attacker())
        sim.run()
        assert log == ["early-value"]
        assert p.value == ("interrupted", "now")
        # The abandoned timeout(100) still drains from the heap.
        assert sim.now == 101.0

    def test_interrupt_dead_process_raises(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()


class TestConditionsOverProcessedEvents:
    def test_anyof_with_pre_processed_event_fires_immediately(self):
        sim = Simulator()
        early = sim.timeout(0.0, "early")
        sim.run()
        assert early.processed
        late = sim.timeout(50.0, "late")

        def waiter():
            result = yield sim.any_of([early, late])
            return sim.now, result

        p = sim.process(waiter())
        sim.run()
        when, result = p.value
        assert when == 0.0
        assert result == {early: "early"}

    def test_allof_with_pre_processed_events_waits_for_last(self):
        sim = Simulator()
        e1 = sim.timeout(0.0, 1)
        e2 = sim.timeout(0.0, 2)
        sim.run()
        e3 = sim.timeout(7.0, 3)

        def waiter():
            result = yield sim.all_of([e1, e2, e3])
            return sim.now, result

        p = sim.process(waiter())
        sim.run()
        when, result = p.value
        assert when == 7.0
        assert result == {e1: 1, e2: 2, e3: 3}

    def test_allof_entirely_pre_processed(self):
        sim = Simulator()
        e1 = sim.timeout(0.0, "a")
        e2 = sim.timeout(0.0, "b")
        sim.run()

        def waiter():
            result = yield sim.all_of([e1, e2])
            return result

        p = sim.process(waiter())
        sim.run()
        assert p.value == {e1: "a", e2: "b"}
