"""repro.obs -- causal span tracing, latency attribution, timeline export.

Observability subsystem for the U-Net reproduction.  Three pieces:

* **causal spans and metrics** (:mod:`repro.obs.spans`) — a
  zero-overhead-when-off begin/end/annotate API plus named counters,
  high-water gauges and histograms, all on one :class:`SpanCollector`,
  the only place model code records anything.  Model code guards every
  call site with one ``obs.active`` load and an ``is None`` test;
  outside :func:`collecting` that is the only cost.  Span parents
  propagate across heap entries via the engine's instrumentation slot
  (the race detector's happens-before mechanism), so causality follows
  ``schedule -> execute`` edges.
* **latency attribution** (:mod:`repro.obs.attrib`) — folds a window of
  spans into a per-layer breakdown whose components sum *exactly* to
  the window length, checked against the paper's Table 1 / §4.2.3
  budgets (:mod:`repro.obs.budgets`).
* **timeline export** (:mod:`repro.obs.export`) — Chrome
  ``trace_event`` / Perfetto JSON of spans plus counter tracks per
  simulated host/NI, and engine self-profiling.

CLI: ``python -m repro.obs {report,export,diff}``.

Arming: :func:`collecting` is the one way in.  It takes the engine's
single instrumentation slot (:func:`repro.sim.engine.monitored`), so it
raises ``RuntimeError`` inside ``race.detected()`` rather than blind
the race detector.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.spans import ObsMonitor, Span, SpanCollector
from repro.sim import engine as _engine

__all__ = ["Span", "SpanCollector", "ObsMonitor", "active", "collecting"]

#: The live collector, or ``None`` when spans are off.  Hot paths read
#: this exactly once per instrumented function: ``_o = obs.active`` /
#: ``if _o is not None: ...``.
active: Optional[SpanCollector] = None


@contextmanager
def collecting() -> Iterator[SpanCollector]:
    """Scoped span collection::

        with obs.collecting() as col:
            sim = Simulator()          # construct *inside* the scope
            ... run the scenario ...
        report = attrib.attribute(col.spans, t0, t1)

    Raises ``RuntimeError`` if another engine monitor (the race
    detector) is armed.
    """
    global active
    collector = SpanCollector()
    with _engine.monitored(ObsMonitor(collector)):
        active = collector
        try:
            yield collector
        finally:
            active = None
