"""Calendar-core internals: timers, pooling, time guards, the front slot.

The observable-contract tests live in ``test_core_equivalence.py``;
this file pins down the mechanisms — O(1) timer cancellation, handle
recycling through the pool, rejection of NaN times, and the front-slot
ordering edge cases.
"""

import contextlib

import pytest

from repro.sim import Resource, Simulator
from repro.sim.engine import SimulationError

from tests.sim.monitors import fifo_monitored


@pytest.fixture(params=["calendar", "heap"])
def core(request):
    """Both schedulers: the calendar core and the monitored heap (built
    under a no-op FIFO monitor), which keeps its own timer pool."""
    context = fifo_monitored if request.param == "heap" else contextlib.nullcontext
    with context():
        yield request.param


# --------------------------------------------------------------------------
# Timer semantics (both schedulers)
# --------------------------------------------------------------------------

def test_timer_fires_with_args(core):
    sim = Simulator()
    fired = []
    sim.schedule_timer(5.0, fired.append, "a")
    sim.schedule_timer(3.0, fired.append, "b")
    sim.run()
    assert fired == ["b", "a"]
    assert sim.now == 5.0


def test_cancelled_timer_does_not_fire(core):
    sim = Simulator()
    fired = []
    keep = sim.schedule_timer(4.0, fired.append, "keep")
    drop = sim.schedule_timer(2.0, fired.append, "drop")
    drop.cancel()
    sim.run()
    assert fired == ["keep"]
    assert keep.when == 4.0


def test_cancel_is_idempotent_and_late_cancel_is_noop(core):
    sim = Simulator()
    fired = []
    h = sim.schedule_timer(1.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    h.cancel()  # already fired: no-op
    h.cancel()  # and again
    assert fired == ["x"]


def test_cancelled_timer_entry_still_advances_clock(core):
    """A dead entry is popped as a no-op but its timestamp is still
    observed — run() drains the schedule, exactly like the seed."""
    sim = Simulator()
    sim.schedule_timer(7.0, lambda: None).cancel()
    sim.run()
    assert sim.now == 7.0


def test_timer_cancel_inside_callback(core):
    sim = Simulator()
    fired = []
    victim = sim.schedule_timer(10.0, fired.append, "victim")
    sim.schedule_callback(5.0, victim.cancel)
    sim.run()
    assert fired == []


# --------------------------------------------------------------------------
# Handle pooling (both schedulers pool; identity proves recycling)
# --------------------------------------------------------------------------

def test_pool_recycles_handle_after_fire(core):
    sim = Simulator()
    first = sim.schedule_timer(1.0, lambda: None)
    sim.run()
    second = sim.schedule_timer(1.0, lambda: None)
    assert second is first


def test_pool_recycles_handle_after_cancel(core):
    sim = Simulator()
    first = sim.schedule_timer(1.0, lambda: None)
    first.cancel()
    sim.run()  # the dead entry pops; the handle returns to the pool
    second = sim.schedule_timer(1.0, lambda: None)
    assert second is first
    fired = []
    second.cancel()
    third = sim.schedule_timer(0.5, fired.append, "live")
    sim.run()
    assert third is not second  # second's entry is still in flight
    assert fired == ["live"]


def test_pool_does_not_recycle_in_flight_handles(core):
    sim = Simulator()
    first = sim.schedule_timer(5.0, lambda: None)
    second = sim.schedule_timer(6.0, lambda: None)
    assert second is not first


# --------------------------------------------------------------------------
# Time guards (both schedulers)
# --------------------------------------------------------------------------

NAN = float("nan")


def _noop():
    pass


NAN_ENTRY_POINTS = {
    "schedule_callback": lambda sim: sim.schedule_callback(NAN, _noop),
    "schedule_callback_at": lambda sim: sim.schedule_callback_at(NAN, _noop),
    "_schedule_event_at": lambda sim: sim._schedule_event_at(sim.event(), NAN),
    "schedule_timer": lambda sim: sim.schedule_timer(NAN, _noop),
    "timeout": lambda sim: sim.timeout(NAN),
    "succeed": lambda sim: sim.event().succeed(delay=NAN),
    "fail": lambda sim: sim.event().fail(RuntimeError("nan"), delay=NAN),
    "run_until": lambda sim: sim.run(until=NAN),
    "resource_hold": lambda sim: Resource(sim).hold(NAN, _noop),
}


@pytest.mark.parametrize("entry", sorted(NAN_ENTRY_POINTS))
def test_nan_time_is_rejected(core, entry):
    """A NaN time or delay fails every ordered compare, so a guard
    written ``x < bound`` lets it through and the entry never pops.
    Each guard must raise instead, and leave the schedule usable."""
    sim = Simulator()
    sim.schedule_callback(2.0, _noop)  # occupy the front slot
    with pytest.raises((ValueError, SimulationError)):
        NAN_ENTRY_POINTS[entry](sim)
    fired = []
    sim.schedule_callback(1.0, fired.append, "after")
    sim.run()
    assert fired == ["after"]
    assert sim.now == 2.0


# --------------------------------------------------------------------------
# Front slot and near heap (calendar core only)
# --------------------------------------------------------------------------

def _calendar_sim():
    sim = Simulator()
    assert sim.stats()["core"] == "calendar"
    return sim


def test_front_insert_accounting():
    sim = _calendar_sim()
    sim.schedule_callback(1.0, lambda: None)   # empty front: front insert
    sim.schedule_callback(2.0, lambda: None)   # later than front: near heap
    stats = sim.stats()
    assert stats["schedules"] == 2
    assert stats["front_inserts"] == 1
    assert stats["near_pushes"] == 1
    assert stats["near_depth"] == 2


def test_stale_front_yields_to_earlier_heap_entry():
    """A fill into an empty front does not look at the heap, so the
    front can be later than the heap top; the pop must take the heap
    entry first.  Here the displaced front is the earlier entry, and a
    later fill lands in the emptied front."""
    sim = _calendar_sim()
    order = []
    sim.schedule_callback_at(1000.0, order.append, "displaced")
    # displaces the first entry into the heap, then refills the front:
    sim.schedule_callback_at(
        10.0, lambda: sim.schedule_callback(2000.0, order.append, "front")
    )
    sim.run()
    assert order == ["displaced", "front"]
    assert sim.now == 2010.0


def test_peek_sees_both_tiers():
    sim = _calendar_sim()
    assert sim.peek() == float("inf")
    sim.schedule_callback(50.0, lambda: None)          # front
    assert sim.peek() == 50.0
    sim.schedule_callback(60.0, lambda: None)          # near heap
    assert sim.peek() == 50.0
    sim.schedule_callback(10.0, lambda: None)          # displaces front
    assert sim.peek() == 10.0
    sim.run(until=10.0)                                # pops the front
    assert sim.peek() == 50.0                          # heap top


def test_run_until_pauses_and_resumes():
    sim = _calendar_sim()
    order = []
    sim.schedule_callback(10.0, order.append, "early")
    sim.schedule_callback(30.0, order.append, "late")
    sim.run(until=20.0)
    assert order == ["early"]
    assert sim.now == 20.0
    with pytest.raises(ValueError, match="lies in the past"):
        sim.run(until=5.0)
    sim.run()
    assert order == ["early", "late"]


def test_stats_report_shape():
    sim = _calendar_sim()
    keys = set(sim.stats())
    assert {
        "core", "schedules", "front_inserts", "near_pushes", "near_depth",
        "timer_pool_hits", "timer_pool_misses", "timer_pool_size",
    } == keys
    with fifo_monitored():
        assert Simulator().stats()["core"] == "heap"
