"""Calendar-core internals: time guards and the front slot.

The observable-contract tests live in ``test_core_equivalence.py``;
this file pins down the mechanisms — rejection of NaN times and the
front-slot ordering edge cases.
"""

import contextlib

import pytest

from repro.sim import Resource, Simulator
from repro.sim.engine import SimulationError

from tests.sim.monitors import fifo_monitored


@pytest.fixture(params=["calendar", "heap"])
def core(request):
    """Both schedulers: the calendar core and the monitored heap (built
    under a no-op FIFO monitor)."""
    context = fifo_monitored if request.param == "heap" else contextlib.nullcontext
    with context():
        yield request.param


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
    } == keys
    with fifo_monitored():
        assert Simulator().stats()["core"] == "heap"
