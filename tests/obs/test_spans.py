"""Span lifecycle, causal propagation across the engine, zero-overhead off."""

import pytest

from repro import obs
from repro.obs.spans import SpanCollector
from repro.sim import Simulator
from repro.sim import engine as _engine


def test_off_by_default():
    assert obs.active is None
    assert _engine._monitor is None


def test_begin_end_nesting_and_parents():
    col = SpanCollector()
    outer = col.begin(0.0, "outer", "host", host="alice")
    inner = col.begin(1.0, "inner", "ni_tx", host="alice")
    assert inner.parent is outer
    assert inner.depth == 1
    assert col.current is inner
    col.end(inner, 2.0)
    assert col.current is outer
    col.end(outer, 3.0)
    assert col.current is None
    assert [s.name for s in col.spans] == ["inner", "outer"]
    assert outer.duration == 3.0
    assert inner.duration == 1.0


def test_end_twice_raises():
    col = SpanCollector()
    span = col.begin(0.0, "s", "host")
    col.end(span, 1.0)
    with pytest.raises(ValueError, match="already ended"):
        col.end(span, 2.0)


def test_duration_of_open_span_raises():
    col = SpanCollector()
    span = col.begin(0.0, "s", "host")
    with pytest.raises(ValueError, match="still open"):
        span.duration


def test_explicit_parent_overrides_current():
    col = SpanCollector()
    a = col.begin(0.0, "a", "host")
    b = col.begin(0.0, "b", "host", parent=None)
    assert b.parent is None
    assert b.depth == 0
    col.end(b, 1.0)
    # b was current; ending it pops back to its parent (None), not a
    assert col.current is None
    col.end(a, 1.0)


def test_add_complete_leaves_current_alone():
    col = SpanCollector()
    span = col.begin(0.0, "s", "host")
    wire = col.add_complete(1.0, 4.0, "cell", "wire", host="link")
    assert col.current is span
    assert wire.t1 == 4.0
    assert wire in col.spans  # already closed, already recorded
    col.end(span, 5.0)


def test_charge_accumulates_on_current():
    col = SpanCollector()
    col.charge(1.0)  # no current span: silently ignored
    span = col.begin(0.0, "s", "host")
    col.charge(2.0)
    col.charge(3.0)
    col.charge(1.5, key="copy_us")
    assert span.attrs == {"cpu_us": 5.0, "copy_us": 1.5}
    col.end(span, 1.0)


def test_annotate_and_to_dict():
    col = SpanCollector()
    span = col.begin(2.0, "s", "ni_rx", host="bob")
    col.annotate(span, bytes=32, cells=1)
    col.end(span, 3.5)
    d = span.to_dict()
    assert d["layer"] == "ni_rx"
    assert d["host"] == "bob"
    assert d["attrs"] == {"bytes": 32, "cells": 1}
    assert d["parent"] is None


def test_context_propagates_across_schedule_callback():
    """The span open at schedule time is current when the callback runs."""
    with obs.collecting() as col:
        sim = Simulator()
        seen = []

        def fire():
            seen.append(col.current)

        span = col.begin(0.0, "root", "bench")
        sim.schedule_callback(5.0, fire)
        col.end(span, 0.0)
        assert col.current is None
        sim.run()
    assert seen == [span]


def test_context_propagates_across_generator_yield():
    """A span opened before a timeout is current again after the resume."""
    with obs.collecting() as col:
        sim = Simulator()
        observed = []

        def proc():
            span = col.begin(sim.now, "work", "host")
            yield sim.timeout(3.0)
            observed.append(col.current)
            col.end(span, sim.now)

        sim.process(proc())
        sim.run()
        assert observed == [col.spans[0]]
        assert col.spans[0].duration == 3.0


def test_context_is_isolated_between_heap_entries():
    """An entry scheduled with no open span runs with no span, even when
    another chain's span is open at execution time."""
    with obs.collecting() as col:
        sim = Simulator()
        seen = {}

        def bare():
            seen["bare"] = col.current

        sim.schedule_callback(1.0, bare)  # scheduled before any span
        span = col.begin(0.0, "late", "bench")
        sim.run()
        col.end(span, sim.now)
    assert seen["bare"] is None


def test_engine_profile_counts_callbacks_and_events():
    with obs.collecting() as col:
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.schedule_callback(1.0, lambda: None)
        sim.run()
    profile = col.engine_profile()
    assert profile["executed_callbacks"] == 1
    assert profile["executed_events"] >= 2
    assert profile["entries_scheduled"] == (
        profile["executed_callbacks"] + profile["executed_events"]
    )
    assert profile["max_heap_depth"] >= 1


def test_same_time_tiebreak_order_matches_uninstrumented():
    """Arming obs must not perturb the engine's FIFO tie-break."""

    def run_once():
        sim = Simulator()
        order = []
        for tag in range(6):
            sim.schedule_callback(1.0, order.append, tag)
        sim.run()
        return order

    baseline = run_once()
    with obs.collecting():
        instrumented = run_once()
    assert instrumented == baseline


def test_collecting_restores_previous_state():
    assert obs.active is None
    with obs.collecting() as col:
        assert obs.active is col
        assert isinstance(_engine._monitor, obs.ObsMonitor)
    assert obs.active is None
    assert _engine._monitor is None


def test_enable_refuses_when_monitor_slot_taken():
    with _engine.monitored(object()):
        with pytest.raises(RuntimeError, match="already armed"):
            with obs.collecting():
                pass
        assert obs.active is None
    assert _engine._monitor is None
