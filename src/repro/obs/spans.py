"""Causal spans: the data model behind ``repro.obs``.

A :class:`Span` is a named interval of simulated time attributed to one
*layer* (host, uam, ni_tx, ni_rx, wire, switch, ip, tcp, kernel, ...)
on one simulated host.  Spans form a tree: each carries a parent, and
the *current* span propagates causally — synchronously through nested
``begin``/``end`` pairs, and across heap entries through the engine's
``schedule -> execute`` edges exactly like the race detector's
happens-before edges (:class:`ObsMonitor` records the span that was
current when an entry was scheduled and restores it when the entry
pops).

The collector is also the run's only metrics sink: named counters,
high-water gauges and log-bucketed histograms (:meth:`SpanCollector.count`,
:meth:`~SpanCollector.gauge_max`, :meth:`~SpanCollector.observe`) sit
next to the spans and counter-track samples.

Everything here is instant-off: model code guards every call with
``obs.active is not None`` so a disabled run pays one attribute load
and an ``is`` test per instrumented function.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram

_MISSING = object()


class Span:
    """One attributed interval of simulated time.

    ``t1`` is ``None`` while the span is open.  ``depth`` is the length
    of the parent chain; the attribution pass uses it to let the most
    specific (deepest) span win where intervals overlap.
    """

    __slots__ = (
        "sid", "name", "layer", "host", "t0", "t1", "parent", "depth",
        "attrs",
    )

    def __init__(
        self,
        sid: int,
        name: str,
        layer: str,
        host: str,
        t0: float,
        parent: Optional["Span"],
    ):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.host = host
        self.t0 = t0
        self.t1: Optional[float] = None
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        if self.t1 is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.t1 - self.t0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sid": self.sid,
            "name": self.name,
            "layer": self.layer,
            "host": self.host,
            "t0": self.t0,
            "t1": self.t1,
            "parent": self.parent.sid if self.parent is not None else None,
            "depth": self.depth,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.t1:.3f}" if self.t1 is not None else "open"
        return f"Span({self.sid} {self.layer}/{self.name} [{self.t0:.3f}, {end}])"


class SpanCollector:
    """Accumulates spans, metrics, counter samples and engine self-profile
    data.

    One collector serves the whole run (all simulated hosts share one
    Simulator in this repo).  ``current`` is the innermost open span of
    the *executing* heap entry; :class:`ObsMonitor` swaps it on every
    pop so causality follows schedule edges, not textual nesting.
    """

    def __init__(self):
        self.spans: List[Span] = []  # completed spans, in end order
        self.current: Optional[Span] = None
        #: count() totals; float amounts are allowed (busy-time sums).
        self.counters: Counter = Counter()
        #: gauge_max() high-water marks.
        self.gauges: Dict[str, float] = {}
        #: observe() distributions.
        self.histograms: Dict[str, Histogram] = {}
        #: sample() points: (time, track, host, value) counter tracks.
        self.samples: List[Tuple[float, str, str, float]] = []
        self._sid = 0
        # -- engine self-profile (fed by ObsMonitor) --------------------
        self.executed_callbacks = 0
        self.executed_events = 0
        self.entries_scheduled = 0
        self.max_heap_depth = 0

    # -- span lifecycle -------------------------------------------------
    def begin(
        self,
        now: float,
        name: str,
        layer: str,
        host: str = "",
        parent: Any = _MISSING,
    ) -> Span:
        """Open a span at ``now``; parent defaults to the current span."""
        self._sid += 1
        if parent is _MISSING:
            parent = self.current
        span = Span(self._sid, name, layer, host, now, parent)
        self.current = span
        return span

    def end(self, span: Span, now: float) -> Span:
        """Close ``span`` at ``now`` and pop it off the current chain."""
        if span.t1 is not None:
            raise ValueError(f"span {span.name!r} already ended")
        span.t1 = now
        self.spans.append(span)
        if self.current is span:
            self.current = span.parent
        return span

    def annotate(self, span: Span, **attrs: Any) -> None:
        if span.attrs is None:
            span.attrs = {}
        span.attrs.update(attrs)

    def charge(self, us: float, key: str = "cpu_us") -> None:
        """Accumulate a cost figure onto the current span's attributes."""
        span = self.current
        if span is None:
            return
        if span.attrs is None:
            span.attrs = {}
        span.attrs[key] = span.attrs.get(key, 0.0) + us

    def add_complete(
        self,
        t0: float,
        t1: float,
        name: str,
        layer: str,
        host: str = "",
        parent: Optional[Span] = None,
    ) -> Span:
        """Record an analytically-known interval without touching the
        current chain (the link model computes wire occupancy in closed
        form at claim time rather than pumping per-cell events)."""
        self._sid += 1
        span = Span(self._sid, name, layer, host, t0, parent)
        span.t1 = t1
        self.spans.append(span)
        return span

    # -- metrics --------------------------------------------------------
    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] += n

    def gauge_max(self, key: str, value: float) -> None:
        gauges = self.gauges
        if value > gauges.get(key, -math.inf):
            gauges[key] = value

    def observe(self, key: str, value: float) -> None:
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        hist.observe(value)

    def sample(self, now: float, track: str, value: float, host: str = "") -> None:
        self.samples.append((now, track, host, value))

    # -- reporting ------------------------------------------------------
    def engine_profile(self) -> Dict[str, Any]:
        """Engine self-profiling summary for the obs reports and exports."""
        return {
            "entries_scheduled": self.entries_scheduled,
            "executed_callbacks": self.executed_callbacks,
            "executed_events": self.executed_events,
            "max_heap_depth": self.max_heap_depth,
        }

    def histogram(self, key: str) -> Histogram:
        try:
            return self.histograms[key]
        except KeyError:
            raise KeyError(
                f"no histogram {key!r} (known: {sorted(self.histograms)})"
            ) from None

    def snapshot(self) -> Dict[str, Any]:
        """Counters, gauges and histogram summaries for the JSON reports."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                key: self.histograms[key].summary()
                for key in sorted(self.histograms)
            },
        }


class ObsMonitor:
    """Engine monitor propagating span context along schedule edges.

    Installed by ``obs.collecting()`` through ``engine.monitored`` (the
    same single slot the race detector uses, so the two cannot be armed
    together).  ``on_schedule`` stamps each heap entry with a globally
    unique, monotonically increasing id (preserving the engine's FIFO
    tie-break order bit-for-bit) and remembers the span that was current
    at schedule time; ``on_execute`` restores that span before the entry
    runs, so a span opened before a ``yield`` is current again when the
    process resumes.

    The monitor doubles as the engine self-profiler: entry counts by
    kind (callback, event) and high-water heap depth.
    """

    def __init__(self, collector: SpanCollector):
        self.collector = collector
        self._eid = 0
        self._ctx: Dict[int, Span] = {}
        self._pending = 0

    def on_schedule(self, seq: int, when: float, target: Any) -> int:
        c = self.collector
        c.entries_scheduled += 1
        self._eid += 1
        eid = self._eid
        cur = c.current
        if cur is not None:
            self._ctx[eid] = cur
        self._pending += 1
        if self._pending > c.max_heap_depth:
            c.max_heap_depth = self._pending
        return eid

    def on_execute(self, item: tuple) -> None:
        c = self.collector
        self._pending -= 1
        # entry shapes: None = bare callback, anything else = an Event
        # firing.
        if item[2] is None:
            c.executed_callbacks += 1
        else:
            c.executed_events += 1
        c.current = self._ctx.pop(item[1], None)
