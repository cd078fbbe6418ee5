"""Phase-boundary checkpointing: fork/serial identity of sweeps."""

import pytest

from repro.bench import checkpoint, parallel
from repro.sim import Simulator

POINTS = [2.0, 5.0, 11.0]


def _build_warm():
    """Cheap deterministic warm world: a self-rescheduling counter run
    to its phase boundary."""
    sim = Simulator()
    state = {"n": 0}

    def tick():
        state["n"] += 1
        if sim.now < 200.0:
            sim.schedule_callback(1.0, tick)

    sim.schedule_callback(0.0, tick)
    sim.run(until=50.0)
    return sim, state


def _run_point(world, extra):
    sim, state = world
    sim.run(until=sim.now + extra)
    return (state["n"], sim.now.hex(), sim.events_processed)


def test_fork_and_serial_sweeps_are_identical():
    serial = checkpoint.sweep(_build_warm, _run_point, POINTS, use_fork=False)
    assert len(serial) == len(POINTS)
    # monotone: a longer suffix sees at least as many ticks
    assert serial[0][0] < serial[-1][0]
    if not parallel.fork_available():
        pytest.skip("os.fork not usable here")
    forked = checkpoint.sweep(_build_warm, _run_point, POINTS, use_fork=True)
    assert forked == serial


def test_fork_leaves_parent_world_pristine():
    if not parallel.fork_available():
        pytest.skip("os.fork not usable here")
    world = _build_warm()
    warm_n, warm_now = world[1]["n"], world[0].now
    results = [
        checkpoint._run_forked(world, _run_point, p) for p in POINTS
    ]
    # every child saw the same warm state; the parent never advanced
    assert world[1]["n"] == warm_n
    assert world[0].now == warm_now
    assert results == checkpoint.sweep(
        _build_warm, _run_point, POINTS, use_fork=False
    )


def test_sweep_counters_and_empty_points():
    checkpoint.reset_counters()
    assert checkpoint.sweep(_build_warm, _run_point, []) == []
    assert (checkpoint.forked_points, checkpoint.rebuilt_points) == (0, 0)
    checkpoint.sweep(_build_warm, _run_point, POINTS, use_fork=False)
    assert checkpoint.rebuilt_points == len(POINTS)
    checkpoint.reset_counters()


def test_kill_switch_disables_fork(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CHECKPOINT", "0")
    assert not checkpoint.enabled()
    checkpoint.reset_counters()
    checkpoint.sweep(_build_warm, _run_point, POINTS)  # use_fork=None
    assert checkpoint.forked_points == 0
    assert checkpoint.rebuilt_points == len(POINTS)
    checkpoint.reset_counters()
