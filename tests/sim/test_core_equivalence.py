"""A/B: the calendar core against the monitored heap scheduler.

The unmonitored calendar core and ``_MonitoredSimulator`` (built while
a monitor is installed with ``engine.set_instrumentation``) are two
schedulers behind one contract.  Running the monitored one under a
no-op FIFO monitor must reproduce the calendar core bit for bit.
Three layers of evidence, strongest first:

* engine-level **timeline identity** on randomized workloads — every
  executed entry logged as ``(now.hex(), kind, tag)`` must match
  exactly, including FIFO order inside same-timestamp tie groups;
* **figure-scenario identity** — every perturbation scenario (the
  shrunk fig3–fig9 + sample_sort code paths) must produce identical
  metrics at full float precision under both schedulers;
* **seed-loop identity** — both must behave exactly like the seed
  engine's hand-written loop, verified against a verbatim copy of the
  original ``run()``/``step()``.
"""

import contextlib
import random

import pytest

from repro.analysis import perturb
from repro.sim import Simulator, engine

from tests.sim.monitors import FifoMonitor, fifo_monitored

SCHEDULERS = {"calendar": contextlib.nullcontext, "monitored": fifo_monitored}


# --------------------------------------------------------------------------
# Randomized engine-level workloads
# --------------------------------------------------------------------------

def _exercise(sim, seed, log, use_timers=True):
    """Drive one randomized workload; append every execution to ``log``.

    The mix covers every scheduling entry point: relative and absolute
    callbacks (with deliberate same-timestamp ties), far-future entries
    beyond the calendar horizon, generator processes, triggered events,
    and (optionally) timers with mid-run cancellation.  RNG draws happen
    only inside executed entries, so two runs consume the stream
    identically exactly when their execution orders match — any
    divergence shows up as differing logs.
    """
    rng = random.Random(seed)
    counter = [0]
    live_timers = []

    def spawn():
        counter[0] += 1
        tag = counter[0]
        roll = rng.random()
        if roll < 0.30:
            # tie-heavy: a handful of fixed offsets collide constantly
            sim.schedule_callback(rng.choice((0.0, 1.0, 2.5)), cb, tag)
        elif roll < 0.55:
            sim.schedule_callback(round(rng.uniform(0.0, 40.0), 3), cb, tag)
        elif roll < 0.65:
            sim.schedule_callback_at(
                sim.now + round(rng.uniform(0.0, 10.0), 3), cb, tag
            )
        elif roll < 0.75:
            # beyond the calendar near-window: exercises spill/promote
            sim.schedule_callback(round(rng.uniform(5e3, 3e5), 1), cb, tag)
        elif roll < 0.85:
            sim.process(proc(tag))
        elif roll < 0.95 or not use_timers:
            ev = sim.event()
            ev.callbacks.append(lambda e, t=tag: log.append(
                (sim.now.hex(), "ev", t)
            ))
            ev.succeed(delay=round(rng.uniform(0.0, 20.0), 3))
        else:
            h = sim.schedule_timer(
                round(rng.uniform(0.0, 60.0), 3), timer_cb, tag
            )
            live_timers.append(h)

    def cb(tag):
        log.append((sim.now.hex(), "cb", tag))
        if use_timers and live_timers and rng.random() < 0.3:
            live_timers.pop(rng.randrange(len(live_timers))).cancel()
        for _ in range(rng.randrange(3)):
            if counter[0] < 400:
                spawn()

    def timer_cb(tag):
        log.append((sim.now.hex(), "tm", tag))

    def proc(tag):
        yield sim.timeout(round(rng.uniform(0.0, 15.0), 3))
        log.append((sim.now.hex(), "pr", tag))
        if counter[0] < 400:
            spawn()

    for _ in range(25):
        spawn()
    sim.run()


def _timeline(scheduler, seed, use_timers=True):
    with SCHEDULERS[scheduler]():
        sim = Simulator()
    log = []
    _exercise(sim, seed, log, use_timers=use_timers)
    return log, sim.events_processed, sim.now.hex()


def test_schedulers_are_the_calendar_core_and_the_monitored_heap():
    assert Simulator().stats()["core"] == "calendar"
    with fifo_monitored():
        sim = Simulator()
    assert isinstance(sim, engine._MonitoredSimulator)
    assert isinstance(sim._mon, FifoMonitor)


@pytest.mark.parametrize("seed", range(8))
def test_randomized_timelines_identical_across_cores(seed):
    results = {name: _timeline(name, seed) for name in SCHEDULERS}
    assert results["calendar"] == results["monitored"]
    log, processed, _ = results["calendar"]
    assert len(log) > 50  # the workload actually exercised the engine
    assert processed >= len(log)


def test_timelines_cover_far_future_entries():
    """The randomized mix must actually reach the overflow tier."""
    sim = Simulator()
    _exercise(sim, seed=3, log=[])
    stats = sim.stats()
    assert stats["far_spills"] > 0
    assert stats["promotions"] > 0


# --------------------------------------------------------------------------
# Figure scenarios (fig3–fig9 + sample_sort), full float precision
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", perturb.scenario_names())
def test_figure_scenario_bit_identical_across_cores(name):
    results = {}
    for scheduler, context in SCHEDULERS.items():
        with context():
            metrics = perturb._SCENARIOS[name]()
        results[scheduler] = perturb._canonical_metrics(metrics)
    assert results["calendar"] == results["monitored"]


# --------------------------------------------------------------------------
# Both schedulers vs. the seed engine's verbatim loop
# --------------------------------------------------------------------------

class _SeedLoopSimulator(engine._MonitoredSimulator):
    """The seed engine's hand-written ``run``/``step``, verbatim, over
    the monitored heap's schedule methods (under a FIFO monitor they
    push exactly the seed's ``(when, seq)`` entries).

    Both schedulers must behave byte-for-byte like this original.
    Timers postdate the seed, so seed-comparison workloads exclude
    them.
    """

    __slots__ = ()

    def __init__(self):
        with fifo_monitored():
            super().__init__()

    def step(self):
        if not self._heap:
            raise engine.SimulationError(
                "step() on an empty schedule: nothing left to run"
            )
        item = engine.heapq.heappop(self._heap)
        self._now = item[0]
        self.events_processed += 1
        event = item[2]
        if event is None:
            item[3](*item[4])
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            raise event._value

    def run(self, until=None):
        if until is not None and until < self._now:
            raise ValueError(
                f"until ({until}) lies in the past (now={self._now})"
            )
        heap = self._heap
        pop = engine.heapq.heappop
        processed = 0
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self._now = until
                    return
                item = pop(heap)
                self._now = item[0]
                processed += 1
                event = item[2]
                if event is None:
                    item[3](*item[4])
                    continue
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
        finally:
            self.events_processed += processed
        if until is not None:
            self._now = until


@pytest.mark.parametrize("seed", range(4))
def test_unmonitored_loops_match_seed_behaviour(seed):
    reference = []
    sim = _SeedLoopSimulator()
    _exercise(sim, seed, reference, use_timers=False)
    expected = (reference, sim.events_processed, sim.now.hex())
    for scheduler in SCHEDULERS:
        assert _timeline(scheduler, seed, use_timers=False) == expected, scheduler
