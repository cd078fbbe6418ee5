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

Everything here is instant-off: model code guards every call with
``obs.active is not None`` so a disabled run pays one attribute load
and an ``is`` test per instrumented function.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

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
    """Accumulates spans, counter samples, and engine self-profile data.

    One collector serves the whole run (all simulated hosts share one
    Simulator in this repo).  ``current`` is the innermost open span of
    the *executing* heap entry; :class:`ObsMonitor` swaps it on every
    pop so causality follows schedule edges, not textual nesting.
    """

    def __init__(self):
        self.spans: List[Span] = []  # completed spans, in end order
        self.current: Optional[Span] = None
        #: bump() totals: plain named counters with no time axis.
        self.counters: Counter = Counter()
        #: sample() points: (time, track, host, value) counter tracks.
        self.samples: List[Tuple[float, str, str, float]] = []
        self._sid = 0
        #: Optional FlightRecorder fed on every span end; None = off.
        self.flight: Optional[Any] = None
        #: The metrics registry armed alongside this collector (set by
        #: ``obs.enable``/``obs.collecting``) so report code can read
        #: histograms after the collecting scope has exited.
        self.metrics: Optional[Any] = None
        # -- engine self-profile (fed by ObsMonitor) --------------------
        self.executed_callbacks = 0
        self.executed_events = 0
        self.executed_timers = 0
        self.entries_scheduled = 0
        self.max_heap_depth = 0
        self.wall_by_kind: Dict[str, float] = {
            "callback": 0.0,
            "event": 0.0,
            "timer": 0.0,
        }

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
        fl = self.flight
        if fl is not None:
            fl.record(span)
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
        fl = self.flight
        if fl is not None:
            fl.record(span)
        return span

    # -- counters -------------------------------------------------------
    def bump(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def sample(self, now: float, track: str, value: float, host: str = "") -> None:
        self.samples.append((now, track, host, value))

    # -- reporting ------------------------------------------------------
    def spans_by_layer(self) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.layer, []).append(span)
        return out

    def engine_profile(self) -> Dict[str, Any]:
        """Engine self-profiling summary for BENCH_perf.json / reports."""
        return {
            "entries_scheduled": self.entries_scheduled,
            "executed_callbacks": self.executed_callbacks,
            "executed_events": self.executed_events,
            "max_heap_depth": self.max_heap_depth,
            "wall_s_by_kind": dict(self.wall_by_kind),
        }

    def snapshot(self) -> Dict[str, Any]:
        return {
            "spans": len(self.spans),
            "counters": dict(self.counters),
            "samples": len(self.samples),
            "engine": self.engine_profile(),
        }


class ObsMonitor:
    """Engine monitor propagating span context along schedule edges.

    Installed through ``engine.set_instrumentation`` (the same single
    slot the race detector uses — REPRO_OBS and REPRO_RACE are mutually
    exclusive).  ``on_schedule`` stamps each heap entry with a globally
    unique, monotonically increasing id (preserving the engine's FIFO
    tie-break order bit-for-bit) and remembers the span that was current
    at schedule time; ``on_execute`` restores that span before the entry
    runs, so a span opened before a ``yield`` is current again when the
    process resumes.

    The monitor doubles as the engine self-profiler: entry counts by
    kind (callback vs. event), high-water heap depth, and — when
    ``profile_wall`` is set — wall time attributed per entry kind.
    """

    def __init__(self, collector: SpanCollector, profile_wall: bool = False):
        self.collector = collector
        self._eid = 0
        self._ctx: Dict[int, Span] = {}
        self._pending = 0
        self._clock = None
        self._last_wall: Optional[float] = None
        self._last_kind = "event"
        if profile_wall:
            import time

            # Deliberate wall-clock use: this *is* the profiler.
            self._clock = time.perf_counter  # simlint: disable=wall-clock

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
        # entry shapes: None = bare callback, False = pooled timer
        # (possibly cancelled), anything else = an Event firing.
        tag = item[2]
        if tag is None:
            kind = "callback"
            c.executed_callbacks += 1
        elif tag is False:
            kind = "timer"
            c.executed_timers += 1
        else:
            kind = "event"
            c.executed_events += 1
        if self._clock is not None:
            now_w = self._clock()
            if self._last_wall is not None:
                c.wall_by_kind[self._last_kind] += now_w - self._last_wall
            self._last_wall = now_w
            self._last_kind = kind
        c.current = self._ctx.pop(item[1], None)
