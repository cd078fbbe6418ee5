"""Calendar-core internals: timers, pooling, overflow, the front slot.

The observable-contract tests live in ``test_core_equivalence.py``;
this file pins down the mechanisms — O(1) timer cancellation, handle
recycling through the pool, far-future spill and promotion, window
adaptation, and the front-slot ordering edge cases.
"""

import contextlib

import pytest

from repro.sim import Simulator
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
# Far-future overflow and promotion (calendar core only)
# --------------------------------------------------------------------------

def _calendar_sim():
    sim = Simulator()
    assert sim.stats()["core"] == "calendar"
    return sim


def test_far_future_entries_spill_and_promote():
    sim = _calendar_sim()
    order = []
    sim.schedule_callback(1.0, order.append, "near")
    far_when = Simulator.NEAR_WINDOW_US * 10
    for i in range(3):
        sim.schedule_callback(far_when + i, order.append, f"far{i}")
    stats = sim.stats()
    assert stats["far_spills"] == 3
    assert stats["far_depth"] == 3
    sim.run()
    assert order == ["near", "far0", "far1", "far2"]
    stats = sim.stats()
    assert stats["promotions"] >= 1
    assert stats["far_depth"] == 0


def test_window_doubles_when_overflow_fits_one_window():
    sim = _calendar_sim()
    width0 = sim.stats()["near_window_us"]
    sim.schedule_callback(1.0, lambda: None)
    sim.schedule_callback(width0 * 5, lambda: None)  # spills, then promotes
    sim.run()
    assert sim.stats()["near_window_us"] == width0 * 2


def test_front_insert_accounting():
    sim = _calendar_sim()
    sim.schedule_callback(1.0, lambda: None)   # empty front: front insert
    sim.schedule_callback(2.0, lambda: None)   # later than front: near heap
    stats = sim.stats()
    assert stats["schedules"] == 2
    assert stats["front_inserts"] == 1
    assert stats["near_pushes"] == 1
    assert stats["near_depth"] == 2


def test_front_pop_defers_to_earlier_far_entry():
    """Regression: a stale front slot must not fire past a far entry.

    The front bypasses the horizon, so after a displacement parks an
    entry in the far list a *later* front fill can leave
    ``far_min < front``; the front-pop path has to promote first.
    """
    sim = _calendar_sim()
    order = []
    late = Simulator.NEAR_WINDOW_US * 12
    sim.schedule_callback_at(late + 1000.0, order.append, "far")
    # displaces the far entry out of the front slot:
    sim.schedule_callback_at(
        late, lambda: sim.schedule_callback(2000.0, order.append, "front")
    )
    sim.run()
    assert order == ["far", "front"]
    assert sim.now == late + 2000.0


def test_peek_sees_all_three_tiers():
    sim = _calendar_sim()
    assert sim.peek() == float("inf")
    sim.schedule_callback(50.0, lambda: None)          # front
    assert sim.peek() == 50.0
    sim.schedule_callback(60.0, lambda: None)          # near heap
    assert sim.peek() == 50.0
    sim.schedule_callback(10.0, lambda: None)          # displaces front
    assert sim.peek() == 10.0
    far = Simulator.NEAR_WINDOW_US * 20
    sim2 = _calendar_sim()
    sim2.schedule_callback(1.0, lambda: None)
    sim2.schedule_callback(far, lambda: None)          # far list
    assert sim2.peek() == 1.0


def test_step_drains_in_run_order():
    def build(sim, log):
        sim.schedule_callback(2.0, log.append, "b")
        sim.schedule_callback(1.0, log.append, "a")
        sim.schedule_timer(Simulator.NEAR_WINDOW_US * 8, log.append, "far")
        sim.schedule_callback(2.0, log.append, "c")  # same-time tie

    ref_sim, ref = _calendar_sim(), []
    build(ref_sim, ref)
    ref_sim.run()

    sim, log = _calendar_sim(), []
    build(sim, log)
    steps = 0
    while sim.peek() != float("inf"):
        sim.step()
        steps += 1
    assert log == ref == ["a", "b", "c", "far"]
    assert steps == sim.events_processed == ref_sim.events_processed
    with pytest.raises(SimulationError, match="empty schedule"):
        sim.step()


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
        "core", "schedules", "front_inserts", "near_pushes", "far_spills",
        "promotions", "near_depth", "far_depth", "near_window_us",
        "timer_pool_hits", "timer_pool_misses", "timer_pool_size",
    } <= keys
    with fifo_monitored():
        assert Simulator().stats()["core"] == "heap"
