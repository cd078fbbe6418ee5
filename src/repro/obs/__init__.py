"""repro.obs -- causal span tracing, latency attribution, timeline export.

Observability subsystem for the U-Net reproduction.  Three pieces:

* **causal spans and metrics** (:mod:`repro.obs.spans`) — a
  zero-overhead-when-off begin/end/annotate API plus named counters,
  high-water gauges and histograms, all on one :class:`SpanCollector`,
  the only place model code records anything.  Model code guards every
  call site with one ``obs.active`` load and an ``is None`` test; with
  ``REPRO_OBS`` unset that is the only cost.  Span parents propagate
  across heap entries via the engine's instrumentation slot (the race
  detector's happens-before mechanism), so causality follows
  ``schedule -> execute`` edges.
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

from contextlib import contextmanager
from typing import Optional

from repro import env_flag
from repro.obs.spans import ObsMonitor, Span, SpanCollector

__all__ = [
    "Span",
    "SpanCollector",
    "ObsMonitor",
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


def enable() -> SpanCollector:
    """Arm span and metrics collection globally.

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
    monitor = ObsMonitor(collector)
    _engine.set_instrumentation(lambda: monitor, _engine.access_hook)
    active = collector
    return collector


def disable() -> None:
    """Disarm span collection and release the engine monitor slot."""
    global active
    if active is None:
        return
    from repro.sim import engine as _engine

    _engine.set_instrumentation(None, _engine.access_hook)
    active = None


@contextmanager
def collecting():
    """Scoped span collection::

        with obs.collecting() as col:
            sim = Simulator()          # construct *inside* the scope
            ... run the scenario ...
        report = attrib.attribute(col.spans, t0, t1)

    Saves and restores whatever instrumentation (and collector) was
    active before, so scopes nest safely with the race detector's
    ``detected()`` as long as they do not overlap.
    """
    global active
    from repro.sim import engine as _engine

    prev_factory = _engine._monitor_factory
    prev_access = _engine.access_hook
    prev_active = active
    collector = SpanCollector()
    monitor = ObsMonitor(collector)
    _engine.set_instrumentation(lambda: monitor, prev_access)
    active = collector
    try:
        yield collector
    finally:
        active = prev_active
        _engine.set_instrumentation(prev_factory, prev_access)


if env_flag("REPRO_OBS") and not env_flag("REPRO_RACE"):
    # The REPRO_RACE guard cannot rely on import order: model modules
    # import repro.obs, so this block can run before repro.analysis has
    # armed the race detector.  Checking the environment directly keeps
    # the documented precedence (race wins) deterministic.
    try:
        enable()
    except RuntimeError:
        # REPRO_RACE armed first; the race detector keeps the slot.
        pass
