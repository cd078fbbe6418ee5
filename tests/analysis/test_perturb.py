"""Perturbation harness tests: canonicalization, verdicts, scenarios.

Includes the before/after regression for the ModelTransport arrival
race: a miniature rebuild of the *old* delivery pattern (per-message
processes racing for the destination CPU) is CONFIRMED by the harness,
while the shipped arrival-arbiter code is not.
"""

import dataclasses

import pytest

from repro.analysis import perturb
from repro.analysis.race import detected
from repro.sim import Resource, Simulator
from repro.splitc import CM5, ModelTransport


def _in_process_child(name, hash_seed):
    """Stand-in for the child interpreter: a scenario registered only in
    this process cannot be rebuilt in another one."""
    run = perturb.run_scenario(name)
    return dataclasses.replace(run, tie="hashseed", seed=int(hash_seed))


def _scenario(monkeypatch, fn, name="tmp"):
    monkeypatch.setitem(perturb._SCENARIOS, name, fn)
    monkeypatch.setattr(perturb, "run_in_child", _in_process_child)
    return name


# -- canonicalization ------------------------------------------------------

def test_canonical_trace_groups_by_timestamp():
    trace = [(1.0, "a"), (1.0, "b"), (1.0, "a"), (2.5, "c")]
    groups = perturb._canonical_trace(trace)
    assert groups == [
        ((1.0).hex(), (("a", 2), ("b", 1))),
        ((2.5).hex(), (("c", 1),)),
    ]


def test_canonical_trace_is_order_insensitive_within_groups():
    fifo = perturb._canonical_trace([(1.0, "a"), (1.0, "b")])
    lifo = perturb._canonical_trace([(1.0, "b"), (1.0, "a")])
    assert fifo == lifo


def test_canonical_metrics_hex_floats():
    out = perturb._canonical_metrics({"x": 0.1, "n": 3})
    assert out == {"x": (0.1).hex(), "n": "3"}


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        perturb.run_scenario("no-such-figure")


def test_registry_covers_all_figures():
    assert {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "sample_sort"} \
        <= set(perturb.scenario_names())


# -- verdict classification ------------------------------------------------

def _racy_metric():
    """A metric that genuinely depends on the same-timestamp tie order."""
    sim = Simulator()
    order = []
    sim.schedule_callback(1.0, order.append, 10.0)
    sim.schedule_callback(1.0, order.append, 20.0)
    sim.run()
    return {"first": order[0]}


def _stable_metric():
    sim = Simulator()
    seen = []
    sim.schedule_callback(1.0, seen.append, 10.0)
    sim.schedule_callback(2.0, seen.append, 20.0)
    sim.run()
    return {"first": seen[0]}


def test_order_dependent_scenario_is_confirmed(monkeypatch):
    name = _scenario(monkeypatch, _racy_metric)
    verdict = perturb.race_check(name, random_orders=1)
    assert verdict.diverged
    assert verdict.status in ("CONFIRMED", "DIVERGED")
    assert any(diff.metric_diffs for diff in verdict.diffs)
    assert "lifo" in verdict.format()


def test_stable_scenario_is_clean(monkeypatch):
    name = _scenario(monkeypatch, _stable_metric)
    verdict = perturb.race_check(name, random_orders=1)
    assert not verdict.diverged
    assert verdict.status == "CLEAN"
    assert verdict.confirmed == []


def test_trace_reorder_without_metric_divergence_is_benign(monkeypatch):
    """Same-timestamp commuting work: traces may reorder group-internally
    only (which canonicalization absorbs); metrics are the verdict."""

    def commuting():
        sim = Simulator()
        acc = []
        sim.schedule_callback(1.0, acc.append, 1.0)
        sim.schedule_callback(1.0, acc.append, 2.0)
        sim.run()
        return {"total": sum(acc)}  # addition commutes

    name = _scenario(monkeypatch, commuting)
    verdict = perturb.race_check(name, random_orders=1)
    assert not verdict.diverged
    assert verdict.status == "CLEAN"


# -- the PYTHONHASHSEED order ----------------------------------------------

def test_hash_seed_divergence_is_confirmed(monkeypatch):
    """A child whose metrics differ under another PYTHONHASHSEED makes
    the verdict diverge, even when every tie order agrees."""
    name = _scenario(monkeypatch, _stable_metric)

    def drifting_child(name, hash_seed):
        run = _in_process_child(name, hash_seed)
        return dataclasses.replace(run, metrics={"first": (20.0).hex()})

    monkeypatch.setattr(perturb, "run_in_child", drifting_child)
    verdict = perturb.race_check(name, random_orders=1)
    assert verdict.diverged
    diverging = [d.order for d in verdict.diffs if d.metrics_diverged]
    assert diverging == [f"hashseed:{perturb._child_hash_seed()}"]
    assert "hashseed" in verdict.format()


def test_fig3_hash_seed_run_equals_fifo():
    """The real child interpreter, under a different PYTHONHASHSEED,
    reproduces the fifo run's metrics and trace groups exactly."""
    fifo = perturb.run_scenario("fig3")
    child = perturb.run_in_child("fig3", perturb._child_hash_seed())
    assert child.order.startswith("hashseed:")
    assert child.metrics == fifo.metrics
    assert child.trace_groups == fifo.trace_groups
    assert child.entries == fifo.entries


# -- the ModelTransport arrival race: before / after -----------------------

def _old_style_delivery_metrics():
    """The pre-fix delivery pattern: one process per message, each
    sleeping the wire latency then contending for the destination CPU.
    Which message wins the same-instant contention is a heap-insertion
    accident, and the handler log shows it."""
    sim = Simulator()
    cpu = Resource(sim, 1, name="rx.cpu")
    log = []

    def deliver(src):
        yield sim.timeout(5.0)  # both arrive at t=5
        yield from cpu.use(3.0)
        log.append(src)

    sim.process(deliver(0))
    sim.process(deliver(1))
    sim.run()
    return {"first_handled": float(log[0])}


def test_old_delivery_pattern_is_confirmed_by_harness(monkeypatch):
    name = _scenario(monkeypatch, _old_style_delivery_metrics, "old-deliver")
    verdict = perturb.race_check(name, random_orders=2)
    assert verdict.diverged, "per-message CPU contention must diverge"


def _model_transport_metrics():
    """The shipped code: rank 1 and rank 2 both message rank 0 at the
    same instant; the arrival arbiter must pin the delivery order."""
    sim = Simulator()
    tp = ModelTransport(sim, CM5, 3)
    log = []

    def handler(src, data):
        log.append(src)

    tp.attach(0, handler)

    def sender(rank):
        yield from tp.send(rank, 0, b"x")

    sim.process(sender(1))
    sim.process(sender(2))
    sim.run()
    return {"first": float(log[0]), "second": float(log[1])}


def test_model_transport_arrivals_are_order_stable(monkeypatch):
    name = _scenario(monkeypatch, _model_transport_metrics, "mt-arrivals")
    verdict = perturb.race_check(name, random_orders=2)
    assert not verdict.diverged, verdict.format()
    # fixed-priority arbitration: lowest source rank delivered first
    baseline = verdict.baseline.metrics
    assert baseline["first"] == (1.0).hex()
    assert baseline["second"] == (2.0).hex()


def test_fig5_scenario_has_no_confirmed_races():
    """The figure-5 Split-C run must not depend on the tie-break."""
    verdict = perturb.race_check("fig5", random_orders=1)
    assert not verdict.diverged, verdict.format()
    assert verdict.confirmed == []


# -- run_scenario plumbing -------------------------------------------------

def test_run_scenario_returns_canonical_run(monkeypatch):
    name = _scenario(monkeypatch, _stable_metric)
    run = perturb.run_scenario(name, tie="lifo")
    assert run.tie == "lifo"
    assert run.order == "lifo"
    assert run.metrics == {"first": (10.0).hex()}
    assert run.entries > 0
    assert run.trace_groups


def test_run_scenario_restores_instrumentation(monkeypatch):
    from repro.sim import engine

    name = _scenario(monkeypatch, _stable_metric)
    previous = (engine._monitor, engine.access_hook)
    perturb.run_scenario(name)
    assert (engine._monitor, engine.access_hook) == previous
