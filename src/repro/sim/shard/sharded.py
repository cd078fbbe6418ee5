"""The in-process sharded engine: N calendar timelines, one merge rule.

:class:`ShardedSimulator` partitions the schedule across ``n_shards``
independent calendar-queue timelines (each built by the same
battle-tested ``_build_calendar_core`` factory as the single-core
engine) and executes them under a deterministic merge:

    pick the timeline whose earliest pending entry has the globally
    minimal ``(timestamp, shard_id)``; step it once.

Within a shard the calendar core preserves the engine's exact
``(timestamp, seq)`` FIFO order; across shards, same-timestamp groups
drain in shard order.  Cross-shard tie order is precisely the freedom
the engine has never promised (the PR 3 perturbation harness exists to
prove scenario metrics don't depend on it), and the A/B suite pins the
resulting metrics to the single-core run at full float precision.

This mode runs in one process — it cannot speed anything up.  Its job
is *verification*: every fig-scenario A/B run drives the cut channels,
the struct codec, the lookahead assertions, and the merge rule that the
multi-process coordinator (:mod:`repro.sim.shard.coordinator`) relies
on, with the single-core engine as ground truth.  Real parallelism
comes from the coordinator, which runs one plain :class:`Simulator`
per worker process and synchronises them conservatively.

Scheduling *attribution*: every ``schedule_*`` call lands on the shard
that is currently executing (or, at build time, the shard selected
with :meth:`shard_scope`).  Event chains therefore migrate to the shard
whose cut delivery started them — exactly the space partition of the
topology — while correctness never depends on attribution at all,
because execution is globally time-ordered.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional

from repro.sim import engine as _engine
from repro.sim.engine import SimulationError, Simulator
from repro.sim.shard.channel import InlineChannel
from repro.sim.shard.errors import ShardError
from repro.sim.shard.plan import CutEdge

_INF = float("inf")


class _Timeline:
    """One shard's calendar queue: the minimal host the core factory needs.

    ``_build_calendar_core`` only ever touches ``sim._now`` and
    ``sim.events_processed`` on the object it is handed, so an 11-slot
    shell is enough to own a full calendar core.
    """

    __slots__ = (
        "_now",
        "events_processed",
        "schedule_callback",
        "schedule_callback_at",
        "_schedule",
        "_schedule_event_at",
        "schedule_timer",
        "run",
        "step",
        "peek",
        "stats",
    )

    def __init__(self, width: float):
        self._now = 0.0
        self.events_processed = 0
        (
            self.schedule_callback,
            self.schedule_callback_at,
            self._schedule,
            self._schedule_event_at,
            self.schedule_timer,
            self.run,
            self.step,
            self.peek,
            self.stats,
        ) = _engine._build_calendar_core(self, width)


class _MonitoredTimeline:
    """One shard's *monitored* timeline: a heap core reporting to a
    shared obs monitor through its per-shard view.

    Borrows ``_MonitoredSimulator``'s schedule, step, peek and stats
    methods verbatim (they only touch ``_now`` / ``_seq`` / ``_heap``
    / ``_timer_pool`` / ``_mon``), so span context propagates along
    schedule→execute edges across *all* timelines of one
    :class:`ShardedSimulator` — the shared monitor's entry ids are
    globally monotonic, which preserves each timeline's FIFO tie-break
    exactly.  Only constructed when a shard-aware monitor is armed; the
    off path keeps building plain calendar :class:`_Timeline` shells.
    """

    __slots__ = ("_now", "events_processed", "_heap", "_seq",
                 "_timer_pool", "_mon")

    def __init__(self, view: Any):
        self._now = 0.0
        self.events_processed = 0
        self._heap: List[tuple] = []
        self._seq = 0
        self._timer_pool: List[Any] = []
        self._mon = view

    schedule_callback = _engine._MonitoredSimulator.schedule_callback
    schedule_callback_at = _engine._MonitoredSimulator.schedule_callback_at
    _schedule = _engine._MonitoredSimulator._schedule
    _schedule_event_at = _engine._MonitoredSimulator._schedule_event_at
    schedule_timer = _engine._MonitoredSimulator.schedule_timer
    step = _engine._MonitoredSimulator.step
    peek = _engine._MonitoredSimulator.peek
    stats = _engine._MonitoredSimulator.stats


class _ShardScope:
    """Context manager: attribute subsequent scheduling to one shard."""

    __slots__ = ("_cur", "_shard", "_saved")

    def __init__(self, cur: List[int], shard: int):
        self._cur = cur
        self._shard = shard
        self._saved = 0

    def __enter__(self) -> "_ShardScope":
        self._saved = self._cur[0]
        self._cur[0] = self._shard
        return self

    def __exit__(self, *exc: Any) -> None:
        self._cur[0] = self._saved


class ShardedSimulator(Simulator):
    """N-timeline engine with the deterministic ``(t, shard)`` merge."""

    __slots__ = (
        "_timelines",
        "_cur",
        "n_shards",
        "_cross_messages",
        "_channels",
    )

    def __new__(cls, n_shards: Optional[int] = None) -> "ShardedSimulator":
        # Direct construction (tests, the bench harness) bypasses the
        # base class's environment routing.
        return object.__new__(cls)

    def __init__(self, n_shards: Optional[int] = None):
        n = _engine.shard_count() if n_shards is None else n_shards
        if n < 1:
            raise ValueError(f"need at least one shard, got {n}")
        self._now = 0.0
        self.n_shards = n
        self._cross_messages = 0
        self._channels: List[InlineChannel] = []
        width = self.NEAR_WINDOW_US
        # A shard-aware monitor (obs spans) rides into the sharded
        # engine: one shared monitor, one per-shard view per timeline.
        factory = _engine._monitor_factory
        if factory is not None and _engine._monitor_shard_aware:
            mon = factory()
            timelines: List[Any] = [
                _MonitoredTimeline(mon.shard_view(k)) for k in range(n)
            ]
        else:
            mon = None
            timelines = [_Timeline(width) for _ in range(n)]
        self._mon = mon
        self._timelines = timelines
        cur = [0]
        self._cur = cur

        # Route the scheduling surface to the currently-executing shard.
        # These live in the same instance slots the single-core engine
        # uses for its closures, so model code sees an identical API.
        def schedule_callback(delay, fn, *args):
            return timelines[cur[0]].schedule_callback(delay, fn, *args)

        def schedule_callback_at(when, fn, *args):
            return timelines[cur[0]].schedule_callback_at(when, fn, *args)

        def _schedule(event, delay=0.0):
            return timelines[cur[0]]._schedule(event, delay)

        def _schedule_event_at(event, when):
            return timelines[cur[0]]._schedule_event_at(event, when)

        def schedule_timer(delay, fn, *args):
            return timelines[cur[0]].schedule_timer(delay, fn, *args)

        peeks = [tl.peek for tl in timelines]
        steps = [tl.step for tl in timelines]

        def run(until=None):
            if until is not None and until < self._now:
                raise ValueError(
                    f"until ({until}) lies in the past (now={self._now})"
                )
            while True:
                best_t = _INF
                best_k = -1
                for k in range(n):
                    t = peeks[k]()
                    if t < best_t:
                        best_t = t
                        best_k = k
                if best_k < 0:
                    break
                if until is not None and best_t > until:
                    break
                cur[0] = best_k
                # The global clock must read the entry's timestamp
                # *while it executes* (the timeline sets its own local
                # clock, but model code reads ``sim.now`` on us).
                self._now = best_t
                steps[best_k]()
            cur[0] = 0
            if until is not None:
                self._now = until
            # Re-anchor every timeline at the global clock so relative
            # scheduling between runs uses the same base everywhere.
            for tl in timelines:
                tl._now = self._now

        def step():
            best_t = _INF
            best_k = -1
            for k in range(n):
                t = peeks[k]()
                if t < best_t:
                    best_t = t
                    best_k = k
            if best_k < 0:
                raise SimulationError(
                    "step() on an empty schedule: nothing left to run"
                )
            cur[0] = best_k
            self._now = best_t
            steps[best_k]()
            cur[0] = 0

        def peek():
            best_t = _INF
            for k in range(n):
                t = peeks[k]()
                if t < best_t:
                    best_t = t
            return best_t

        def stats():
            per_shard = [tl.stats() for tl in timelines]
            merged = {
                "core": "sharded-calendar",
                "shards": n,
                "cross_messages": self._cross_messages,
                "cut_edges": len(self._channels),
                "events_per_shard": [
                    tl.events_processed for tl in timelines
                ],
            }
            if mon is not None:
                merged["core"] = "sharded-heap-monitored"
            for key in (
                "schedules",
                "front_inserts",
                "near_pushes",
                "far_spills",
                "promotions",
                "near_depth",
                "far_depth",
            ):
                # Monitored timelines report heap stats, which lack the
                # calendar-only keys; missing counts read as zero.
                merged[key] = sum(s.get(key, 0) for s in per_shard)
            return merged

        self.schedule_callback = schedule_callback
        self.schedule_callback_at = schedule_callback_at
        self._schedule = _schedule
        self._schedule_event_at = _schedule_event_at
        self.schedule_timer = schedule_timer
        self.run = run
        self.step = step
        self.peek = peek
        self.stats = stats

    # -- accounting -----------------------------------------------------
    @property
    def events_processed(self) -> int:  # shadows the base-class slot
        return sum(tl.events_processed for tl in self._timelines)

    @property
    def cross_messages(self) -> int:
        """Cut-channel messages delivered across timelines so far."""
        return self._cross_messages

    # -- shard surface (used by topology builders and channels) ---------
    @property
    def current_shard(self) -> int:
        return self._cur[0]

    def shard_scope(self, shard: int) -> _ShardScope:
        """Attribute scheduling inside the ``with`` block to ``shard``.

        Topology builders wrap per-host construction in this so the
        initial events of a host's processes land on its own timeline.
        """
        if not 0 <= shard < self.n_shards:
            raise ShardError(
                f"shard {shard} out of range (0..{self.n_shards - 1})"
            )
        return _ShardScope(self._cur, shard)

    def _schedule_cross(
        self, dst_shard: int, when: float, fn: Callable, *args: Any
    ) -> None:
        """Channel-only entry point: deliver into another shard's timeline.

        ``when`` is always at or after the global clock (channels assert
        the edge lookahead first), so the destination timeline — whose
        local clock can only lag the global one — accepts it without a
        causality error.
        """
        self._cross_messages += 1
        self._timelines[dst_shard].schedule_callback_at(when, fn, *args)

    def open_channel(
        self,
        edge: CutEdge,
        deliver_cell: Callable,
        deliver_train: Optional[Callable] = None,
    ) -> InlineChannel:
        """Materialize a registered cut edge as an inline channel."""
        if not 0 <= edge.dst_shard < self.n_shards:
            raise ShardError(
                f"cut edge {edge.name!r} targets shard {edge.dst_shard}, "
                f"but this simulator has {self.n_shards}"
            )
        channel = InlineChannel(edge, self, deliver_cell, deliver_train)
        self._channels.append(channel)
        return channel

    def channels(self) -> Iterator[InlineChannel]:
        return iter(self._channels)
