"""repro.obs -- causal span tracing, latency attribution, timeline export.

Observability subsystem for the U-Net reproduction (ISSUE 4).  Three
pieces:

* **causal spans** (:mod:`repro.obs.spans`) — a zero-overhead-when-off
  begin/end/annotate API.  Model code guards every call site with
  ``obs.active is not None``; with ``REPRO_OBS`` unset that is the only
  cost.  Span parents propagate across heap entries via the engine's
  instrumentation slot (the race detector's happens-before mechanism),
  so causality follows ``schedule -> execute`` edges.
* **latency attribution** (:mod:`repro.obs.attrib`) — folds a window of
  spans into a per-layer breakdown whose components sum *exactly* to
  the window length, checked against the paper's Table 1 / §4.2.3
  budgets (:mod:`repro.obs.budgets`).
* **timeline export** (:mod:`repro.obs.export`) — Chrome
  ``trace_event`` / Perfetto JSON of spans plus counter tracks per
  simulated host/NI, and engine self-profiling.

CLI: ``python -m repro.obs {report,export,diff}``.

Arming: set ``REPRO_OBS=1`` in the environment (read at import time,
before any Simulator is constructed), or use :func:`collecting` /
:func:`enable` programmatically.  The engine has a single
instrumentation slot, so ``REPRO_OBS`` and ``REPRO_RACE`` are mutually
exclusive; when the race detector is already armed, obs refuses (env
arming defers silently).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

from repro.obs import metrics
from repro.obs.flight import FlightRecorder, ring_limit_from_env
from repro.obs.spans import ObsMonitor, Span, SpanCollector

__all__ = [
    "Span",
    "SpanCollector",
    "ObsMonitor",
    "FlightRecorder",
    "metrics",
    "active",
    "enabled",
    "enable",
    "disable",
    "collecting",
]

#: The live collector, or ``None`` when spans are off.  Hot paths read
#: this exactly once per instrumented function: ``_o = obs.active`` /
#: ``if _o is not None: ...``.
active: Optional[SpanCollector] = None


def enabled() -> bool:
    return active is not None


def _attach_flight(collector: SpanCollector, flight) -> None:
    """Attach a flight recorder per the ``flight`` argument: ``None``
    consults ``REPRO_OBS_FLIGHT``, ``True`` uses the default capacity,
    an int sets the capacity, ``False`` forces off."""
    if flight is None:
        limit = ring_limit_from_env()
        if limit is not None:
            collector.flight = FlightRecorder(limit)
    elif flight is True:
        collector.flight = FlightRecorder()
    elif flight:
        collector.flight = FlightRecorder(int(flight))


def enable(profile_wall: bool = False, flight=None) -> SpanCollector:
    """Arm span collection (and the metrics registry) globally.

    Must run before the Simulator under observation is constructed (the
    engine picks its monitored subclass at construction time).  Raises
    ``RuntimeError`` if another engine monitor (the race detector) is
    already armed.
    """
    global active
    if active is not None:
        return active
    from repro.sim import engine as _engine

    if _engine._monitor_factory is not None:
        raise RuntimeError(
            "engine instrumentation already armed (REPRO_RACE?); "
            "span tracing and race detection are mutually exclusive"
        )
    collector = SpanCollector()
    _attach_flight(collector, flight)
    monitor = ObsMonitor(collector, profile_wall=profile_wall)
    _engine.set_instrumentation(lambda: monitor, _engine.access_hook)
    metrics.enable()
    collector.metrics = metrics.active
    active = collector
    return collector


def disable() -> None:
    """Disarm span collection and release the engine monitor slot."""
    global active
    if active is None:
        return
    from repro.sim import engine as _engine

    _engine.set_instrumentation(None, _engine.access_hook)
    metrics.disable()
    active = None


@contextmanager
def collecting(profile_wall: bool = False, flight=None):
    """Scoped span collection::

        with obs.collecting() as col:
            sim = Simulator()          # construct *inside* the scope
            ... run the scenario ...
        report = attrib.attribute(col.spans, t0, t1)

    Also arms a scoped metrics registry (``obs.metrics.active``).  Saves
    and restores whatever instrumentation (and collector) was active
    before, so scopes nest safely with the race detector's
    ``detected()`` as long as they do not overlap.
    """
    global active
    from repro.sim import engine as _engine

    prev_factory = _engine._monitor_factory
    prev_access = _engine.access_hook
    prev_active = active
    prev_metrics = metrics.active
    collector = SpanCollector()
    _attach_flight(collector, flight)
    monitor = ObsMonitor(collector, profile_wall=profile_wall)
    _engine.set_instrumentation(lambda: monitor, prev_access)
    metrics.active = collector.metrics = metrics.MetricsRegistry()
    active = collector
    try:
        yield collector
    finally:
        active = prev_active
        metrics.active = prev_metrics
        _engine.set_instrumentation(prev_factory, prev_access)


_env_flag = os.environ.get("REPRO_OBS", "")
_race_flag = os.environ.get("REPRO_RACE", "").strip().lower()
if _env_flag not in ("", "0") and _race_flag in ("", "0", "false", "off", "no"):
    # The REPRO_RACE guard cannot rely on import order: model modules
    # import repro.obs, so this block can run before repro.analysis has
    # armed the race detector.  Checking the environment directly keeps
    # the documented precedence (race wins) deterministic.
    try:
        enable()
    except RuntimeError:
        # REPRO_RACE armed first; the race detector keeps the slot.
        pass
del _env_flag, _race_flag
