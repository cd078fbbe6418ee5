"""Core event loop: events, timeouts, processes, and condition events.

Simulated time is a float in microseconds.  All scheduling is
deterministic: events scheduled for the same instant fire in the order
they were scheduled (a monotonically increasing sequence number breaks
ties).

The scheduler is a three-tier calendar queue:

* **front slot** — the imminent entry is held in plain closure cells
  (when/seq/kind/fn/args) outside any container.  Model code dominated
  by schedule-one-pop-one chains (link deliveries, firmware polls)
  never touches the heap at all: scheduling into an empty front slot is
  five cell stores, popping it is five cell reads.
* **near heap** — entries inside the current horizon window go to a
  classic ``heapq`` binary heap (C-implemented; at the depths this
  repo's models produce it beats a bucketed ring, which is why the
  "ring of time buckets" degenerates to one sorted bucket plus the
  front slot — see DESIGN.md §5 for the measurements).
* **far list** — entries at or beyond the horizon are *appended
  unsorted* (O(1)) to an overflow list and only organized (promoted
  into the near heap) when simulated time reaches them.  Protocol
  timers milliseconds out (TCP RTO/delayed-ACK) therefore never churn
  the near heap.  The horizon window adapts: when a promotion drains
  the far list entirely the window doubles, so the split tracks the
  observed event horizon of the workload.

Entries are uniform 5-tuples ``(when, seq, kind, a, b)`` where ``kind``
discriminates the payload::

    (when, seq, None,  fn, args)     # a scheduled callback
    (when, seq, False, handle, None) # a pooled timer (cancellable)
    (when, seq, event, None, None)   # a triggered Event

``seq`` is unique, so tuple comparison never reaches the third element
and the shapes coexist safely.  Timers are :class:`TimerHandle` objects
drawn from a per-simulator free list: ``schedule_timer`` returns a
handle whose ``cancel()`` is O(1) (a flag write — no tombstone event,
no heap surgery); the entry is discarded and the handle recycled when
its timestamp is reached.

Instrumentation (REPRO_RACE / REPRO_OBS monitors) is the one place a
plain binary heap remains: :class:`_MonitoredSimulator` keeps every
entry in a single totally ordered heap so a monitor can see each push
and pop and replace the tie-break key.  It fires entries with the same
dispatch rules and the same ``(time, seq)`` order as the calendar core,
which ``tests/sim/test_core_equivalence.py`` checks entry by entry.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

_INF = float("inf")

#: Schedule-order instrumentation (installed by :mod:`repro.analysis.race`).
#: ``_monitor_factory`` builds one ShadowScheduler monitor per Simulator
#: created while armed; ``access_hook`` is called by state objects
#: (segments, rings, resources, links) on reads/writes so the race
#: detector can attribute accesses to the executing heap entry.  Both are
#: ``None`` in normal operation: unmonitored simulators carry ``self._mon
#: = None`` and the hot run loop is entirely untouched.
_monitor_factory: Optional[Callable[[], Any]] = None
access_hook: Optional[Callable[[int, str, str], None]] = None


def set_instrumentation(
    monitor_factory: Optional[Callable[[], Any]],
    access: Optional[Callable[[int, str, str], None]] = None,
) -> None:
    """Install (or clear, with ``None``) the schedule-order monitor
    factory and the state-access hook.  Only simulators constructed
    while a factory is installed are monitored."""
    global _monitor_factory, access_hook
    _monitor_factory = monitor_factory
    access_hook = access


class SimulationError(RuntimeError):
    """Raised for illegal uses of the engine (double-trigger, bad yield...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called, and runs its callbacks when the simulator
    pops it off the schedule.  Events may only trigger once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    #: Class-level default; only :class:`_InterruptEvent` overrides it.
    _interrupting = False

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None  # None = pending
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if delay < 0:
            raise SimulationError(
                f"cannot trigger {delay} us into the past "
                f"(causality violation at t={self.sim._now})"
            )
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every waiting process.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise SimulationError(
                f"cannot trigger {delay} us into the past "
                f"(causality violation at t={self.sim._now})"
            )
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self


class Timeout(Event):
    """An event that triggers ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    # Field init is flattened (no super().__init__ call): Timeout is the
    # single hottest Event subclass in process-based models.
    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        sim._schedule(self, delay)


class _Initialize(Event):
    """Internal event used to kick off a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        self.sim = sim
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        sim._schedule(self, 0.0)


class _InterruptEvent(Event):
    """The failed event delivering an :class:`Interrupt` to a process."""

    __slots__ = ()

    _interrupting = True


class Process(Event):
    """A running generator; doubles as the event of its own termination.

    The generator yields :class:`Event` instances.  When the yielded
    event triggers, the process resumes with the event's value (or the
    exception, if the event failed).
    """

    __slots__ = ("_generator", "name", "_target", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        self._generator = generator
        # Bound send/throw cached: _resume is the single hottest method
        # in process-based models (one call per resumption).
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._ok is not None:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        event = _InterruptEvent(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event.callbacks.append(self._resume)
        self.sim._schedule(event, 0.0)

    def _resume(self, event: Event) -> None:
        if self._ok is not None:
            # An interrupt can race with normal termination; it is void
            # once the process has finished.
            if event._interrupting:
                event._defused = True
            return
        self._target = None
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                # Defuse: the waiting process handles the failure.
                event._defused = True
                next_event = self._throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(next_event, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
            try:
                self._throw(exc)
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as exc2:
                self.fail(exc2)
            return
        self._target = next_event
        if next_event.callbacks is None:
            # Already processed: resume immediately at the current time.
            stub = Event(self.sim)
            stub._ok = next_event._ok
            stub._value = next_event._value
            stub.callbacks.append(self._resume)
            self.sim._schedule(stub, 0.0)
        else:
            next_event.callbacks.append(self._resume)


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._count = 0
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self.events and self._ok is None:
            self.succeed({})

    def _satisfied(self, n_done: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied(self._count):
            # Report only events that actually fired (were processed) by
            # the time the condition was met.
            self.succeed(
                {
                    e: e._value
                    for e in self.events
                    if (e.processed or e is event) and e._ok
                }
            )


class AnyOf(_Condition):
    """Triggers when the first of ``events`` triggers."""

    __slots__ = ()

    def _satisfied(self, n_done: int) -> bool:
        return n_done >= 1


class AllOf(_Condition):
    """Triggers when all of ``events`` have triggered."""

    __slots__ = ()

    def _satisfied(self, n_done: int) -> bool:
        return n_done == len(self.events)


class TimerHandle:
    """A cancellable, pooled timer returned by ``schedule_timer``.

    ``cancel()`` is O(1): it flips a flag and returns — no tombstone
    event is scheduled and no heap entry is removed.  The dead entry is
    discarded (and the handle recycled onto the simulator's free list)
    when simulated time reaches its timestamp.

    **Lifetime discipline**: a handle is only valid until its timer
    fires or until ``cancel()`` is called.  The engine recycles handles,
    so a holder must drop its reference when the timer fires (first
    statement of the callback) or right after cancelling; calling
    ``cancel()`` on a stale handle may cancel an unrelated, newer timer
    that reused the object.
    """

    __slots__ = ("_when", "_fn", "_args", "_alive")

    def __init__(self) -> None:
        self._when = 0.0
        self._fn: Optional[Callable] = None
        self._args: tuple = ()
        self._alive = False

    @property
    def when(self) -> float:
        """Absolute fire time this handle was armed for."""
        return self._when

    @property
    def alive(self) -> bool:
        """True while the timer is armed and not cancelled."""
        return self._alive

    def cancel(self) -> None:
        """Disarm the timer.  O(1); idempotent."""
        self._alive = False


def _fire(kind: Any, a: Any, b: Any, pool: List[TimerHandle]) -> None:
    """Fire one popped schedule entry ``(when, seq, kind, a, b)``.

    Used by the ``step()`` paths; the calendar run loop inlines the same
    three branches, so an edit here must be mirrored there (the
    core-equivalence tests compare the two entry by entry)."""
    if kind is None:
        if b:
            a(*b)
        else:
            a()
    elif kind is False:
        if a._alive:
            a._alive = False
            fn = a._fn
            args = a._args
            a._fn = None
            a._args = ()
            pool.append(a)
            if args:
                fn(*args)
            else:
                fn()
        else:
            pool.append(a)
    else:
        callbacks, kind.callbacks = kind.callbacks, None
        for callback in callbacks:
            callback(kind)
        if kind._ok is False and not kind._defused:
            raise kind._value


def _build_calendar_core(sim: Any, width: float) -> tuple:
    """Build one calendar-queue scheduler for ``sim``.

    Returns the closures :class:`Simulator` installs as instance
    attributes: ``(schedule_callback, schedule_callback_at, _schedule,
    _schedule_event_at, schedule_timer, run, step, peek, stats)``.  Only
    ``sim._now`` and ``sim.events_processed`` are touched on ``sim``.

    The scheduler state lives in closure cells rather than instance
    attributes: cell access is measurably cheaper than slot access in
    the two hottest functions (``schedule_callback`` and the run loop).
    ``sim._now`` stays a real slot because model code reads ``sim.now``
    mid-callback.

    Front-slot cells: ``fw`` (when; -1.0 = empty), ``fs`` (seq), ``fx``
    (kind: None/False/Event), ``f3``/``f4`` (payload).  Invariants:

    * every near-heap entry has when < horizon; horizon only grows;
    * far entries are >= the horizon they were inserted under, so
      far_min >= horizon > every near-heap entry — heap pops never need
      a far check;
    * the front slot bypasses the horizon, so the front-pop path alone
      must check ``far_min <= front`` (a stale front can postdate a far
      entry scheduled later);
    * while the front is empty (``fw < 0``) the cells ``fx``/``f3``/
      ``f4`` are all None, so each fill path stores only the cells its
      entry kind uses;
    * ``far_min`` is +inf whenever the far list is empty.
    """
    INF = _INF
    push = heapq.heappush
    pop = heapq.heappop
    heap: List[tuple] = []
    far: List[tuple] = []
    pool: List[TimerHandle] = []
    seq = 0
    fw = -1.0
    fs = 0
    fx: Any = None
    f3: Any = None
    f4: Any = None
    far_min = INF
    horizon = width
    pushes = 0
    spills = 0
    promotions = 0
    pool_hits = 0
    pool_misses = 0

    def schedule_callback(delay, fn, *args):
        nonlocal seq, fw, fs, fx, f3, f4, far_min, pushes, spills
        if delay < 0:
            raise ValueError(f"negative callback delay: {delay}")
        seq += 1
        when = sim._now + delay
        w = fw
        if w < 0.0:
            # Empty-front invariant: fx/f3/f4 are already None, so a
            # callback fill only touches the cells it uses.
            fw = when
            fs = seq
            f3 = fn
            f4 = args
            return
        if when < w:
            e = (w, fs, fx, f3, f4)
            fw = when
            fs = seq
            fx = None
            f3 = fn
            f4 = args
        else:
            e = (when, seq, None, fn, args)
        if e[0] < horizon:
            pushes += 1
            push(heap, e)
        else:
            spills += 1
            far.append(e)
            if e[0] < far_min:
                far_min = e[0]

    def schedule_callback_at(when, fn, *args):
        nonlocal seq, fw, fs, fx, f3, f4, far_min, pushes, spills
        if when < sim._now:
            raise SimulationError(
                f"callback time {when} lies in the past (now={sim._now}): "
                f"causality violation"
            )
        seq += 1
        w = fw
        if w < 0.0:
            fw = when
            fs = seq
            f3 = fn
            f4 = args
            return
        if when < w:
            e = (w, fs, fx, f3, f4)
            fw = when
            fs = seq
            fx = None
            f3 = fn
            f4 = args
        else:
            e = (when, seq, None, fn, args)
        if e[0] < horizon:
            pushes += 1
            push(heap, e)
        else:
            spills += 1
            far.append(e)
            if e[0] < far_min:
                far_min = e[0]

    def _schedule(event, delay=0.0):
        nonlocal seq, fw, fs, fx, f3, f4, far_min, pushes, spills
        seq += 1
        when = sim._now + delay
        w = fw
        if w < 0.0:
            fw = when
            fs = seq
            fx = event
            return
        if when < w:
            e = (w, fs, fx, f3, f4)
            fw = when
            fs = seq
            fx = event
            f3 = None
            f4 = None
        else:
            e = (when, seq, event, None, None)
        if e[0] < horizon:
            pushes += 1
            push(heap, e)
        else:
            spills += 1
            far.append(e)
            if e[0] < far_min:
                far_min = e[0]

    def _schedule_event_at(event, when):
        nonlocal seq, fw, fs, fx, f3, f4, far_min, pushes, spills
        if when < sim._now:
            raise SimulationError(
                f"event time {when} lies in the past (now={sim._now}): "
                f"causality violation"
            )
        seq += 1
        w = fw
        if w < 0.0:
            fw = when
            fs = seq
            fx = event
            return
        if when < w:
            e = (w, fs, fx, f3, f4)
            fw = when
            fs = seq
            fx = event
            f3 = None
            f4 = None
        else:
            e = (when, seq, event, None, None)
        if e[0] < horizon:
            pushes += 1
            push(heap, e)
        else:
            spills += 1
            far.append(e)
            if e[0] < far_min:
                far_min = e[0]

    def schedule_timer(delay, fn, *args):
        nonlocal seq, fw, fs, fx, f3, f4, far_min, pushes, spills
        nonlocal pool_hits, pool_misses
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay}")
        if pool:
            h = pool.pop()
            pool_hits += 1
        else:
            h = TimerHandle()
            pool_misses += 1
        seq += 1
        when = sim._now + delay
        h._when = when
        h._fn = fn
        h._args = args
        h._alive = True
        w = fw
        if w < 0.0:
            fw = when
            fs = seq
            fx = False
            f3 = h
            return h
        if when < w:
            e = (w, fs, fx, f3, f4)
            fw = when
            fs = seq
            fx = False
            f3 = h
            f4 = None
        else:
            e = (when, seq, False, h, None)
        if e[0] < horizon:
            pushes += 1
            push(heap, e)
        else:
            spills += 1
            far.append(e)
            if e[0] < far_min:
                far_min = e[0]
        return h

    def _promote():
        # Pull every far entry inside the next horizon window into the
        # near heap.  Called only when the far list holds the earliest
        # pending timestamp, so the new window starts at far_min.
        nonlocal far_min, horizon, width, promotions
        promotions += 1
        horizon = far_min + width
        keep = []
        for e in far:
            if e[0] < horizon:
                push(heap, e)
            else:
                keep.append(e)
        far[:] = keep
        if keep:
            m = keep[0][0]
            for e in keep:
                if e[0] < m:
                    m = e[0]
            far_min = m
        else:
            far_min = INF
            if width < 1048576.0:
                # The whole overflow fit one window: the window is
                # narrower than the observed event horizon, so widen it.
                width *= 2.0

    def run(until=None):
        nonlocal fw, fx, f3, f4
        if until is None:
            limit = INF
        elif until < sim._now:
            raise ValueError(f"until ({until}) lies in the past (now={sim._now})")
        else:
            limit = until
        # events_processed is settled once per run from the schedule
        # counts: entries scheduled during the run plus those pending at
        # its start, minus those still pending at its end.
        seq0 = seq
        pend0 = (fw >= 0.0) + len(heap) + len(far)
        try:
            while True:
                # Select the next entry into (w, x, p, a); a stop at the
                # run limit leaves it scheduled.
                w = fw
                if w >= 0.0 and not (
                    heap and (heap[0][0] < w or (heap[0][0] == w and heap[0][1] < fs))
                ):
                    if far_min <= w:
                        _promote()
                        continue
                    if w > limit:
                        break
                    fw = -1.0
                    x = fx
                    p = f3
                    a = f4
                    fx = f3 = f4 = None
                elif heap:
                    if heap[0][0] > limit:
                        break
                    w, _, x, p, a = pop(heap)
                elif far_min <= limit and far_min != INF:
                    _promote()
                    continue
                else:
                    break
                sim._now = w
                # Dispatch; the same branches as _fire().
                if x is None:
                    if a:
                        p(*a)
                    else:
                        p()
                elif x is False:
                    if p._alive:
                        p._alive = False
                        fn = p._fn
                        args = p._args
                        p._fn = None
                        p._args = ()
                        pool.append(p)
                        if args:
                            fn(*args)
                        else:
                            fn()
                    else:
                        pool.append(p)
                else:
                    callbacks, x.callbacks = x.callbacks, None
                    for callback in callbacks:
                        callback(x)
                    if x._ok is False and not x._defused:
                        raise x._value
            if until is not None:
                sim._now = until
        finally:
            pend1 = (fw >= 0.0) + len(heap) + len(far)
            sim.events_processed += (seq - seq0) + pend0 - pend1

    def step():
        nonlocal fw, fx, f3, f4
        while True:
            w = fw
            if w >= 0.0:
                if heap:
                    h0 = heap[0]
                    if h0[0] < w or (h0[0] == w and h0[1] < fs):
                        item = pop(heap)
                        break
                if far_min <= w:
                    _promote()
                    continue
                item = (w, fs, fx, f3, f4)
                fw = -1.0
                fx = f3 = f4 = None
                break
            if heap:
                item = pop(heap)
                break
            if far_min != INF:
                _promote()
                continue
            raise SimulationError("step() on an empty schedule: nothing left to run")
        sim._now = item[0]
        sim.events_processed += 1
        _fire(item[2], item[3], item[4], pool)

    def peek():
        m = INF
        if fw >= 0.0:
            m = fw
        if heap and heap[0][0] < m:
            m = heap[0][0]
        if far_min < m:
            m = far_min
        return m

    def stats():
        return {
            "core": "calendar",
            "schedules": seq,
            "front_inserts": seq - pushes - spills,
            "near_pushes": pushes,
            "far_spills": spills,
            "promotions": promotions,
            "near_depth": len(heap) + (fw >= 0.0),
            "far_depth": len(far),
            "near_window_us": width,
            "timer_pool_hits": pool_hits,
            "timer_pool_misses": pool_misses,
            "timer_pool_size": len(pool),
        }

    return (schedule_callback, schedule_callback_at, _schedule,
            _schedule_event_at, schedule_timer, run, step, peek, stats)


class Simulator:
    """The discrete-event scheduler (calendar core).

    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(10.0)
    ...     return sim.now
    >>> proc = sim.process(hello(sim))
    >>> sim.run()
    >>> proc.value
    10.0
    """

    __slots__ = (
        "_now",
        "events_processed",
        "_mon",
        # Calendar-core entry points (per-instance closures over the
        # scheduler cells; _MonitoredSimulator uses ordinary methods
        # instead and never assigns these slots).
        "schedule_callback",
        "schedule_callback_at",
        "schedule_timer",
        "_schedule",
        "_schedule_event_at",
        "run",
        "step",
        "peek",
        "stats",
    )

    #: Default near-window width (µs) separating the near heap from the
    #: far overflow list; adapts upward per-instance (DESIGN.md §5).
    NEAR_WINDOW_US = 4096.0

    def __new__(cls) -> "Simulator":
        # When instrumentation is armed, construction routes to the
        # monitored subclass so the base class never pays a per-schedule
        # ``_mon`` check: REPRO_RACE off keeps the exact hot path.
        if cls is Simulator and _monitor_factory is not None:
            return object.__new__(_MonitoredSimulator)
        return object.__new__(cls)

    def __init__(self):
        self._now = 0.0
        #: Total schedule entries processed (events + callbacks +
        #: timers, including cancelled timers); perf metric.
        self.events_processed = 0
        #: ShadowScheduler monitor; always None here (armed construction
        #: routes to _MonitoredSimulator before this __init__ runs).
        self._mon = None
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
        ) = _build_calendar_core(self, self.NEAR_WINDOW_US)

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    # -- event factories ------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)


class _MonitoredSimulator(Simulator):
    """Simulator variant built while instrumentation is armed.

    ``Simulator()`` constructs this subclass (via ``__new__``) whenever
    ``_monitor_factory`` is set, so the ShadowScheduler sees every heap
    push and pop without the base class carrying any per-event checks.
    The monitor may replace the tie-break key (``on_schedule``) to
    perturb same-timestamp ordering; pops are reported via
    ``on_execute`` before the entry runs.  All entries live in one
    binary heap: perturbed keys need a single totally-ordered container.
    A monitor that returns the sequence number unchanged reproduces the
    calendar core's order exactly.
    """

    __slots__ = ("_heap", "_seq", "_timer_pool")

    def __init__(self):
        self._now = 0.0
        self._heap: List[tuple] = []
        self._seq = 0
        self.events_processed = 0
        self._timer_pool: List[TimerHandle] = []
        self._mon = _monitor_factory()

    # Negative delays cannot reach ``_schedule``: Timeout.__init__ and
    # Event.succeed/fail validate before calling.
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        seq = self._mon.on_schedule(self._seq, self._now + delay, event)
        heapq.heappush(self._heap, (self._now + delay, seq, event, None, None))

    def schedule_callback(self, delay: float, fn: Callable, *args: Any) -> None:
        if delay < 0:
            raise ValueError(f"negative callback delay: {delay}")
        self._seq += 1
        seq = self._mon.on_schedule(self._seq, self._now + delay, fn)
        heapq.heappush(self._heap, (self._now + delay, seq, None, fn, args))

    def schedule_callback_at(self, when: float, fn: Callable, *args: Any) -> None:
        if when < self._now:
            raise SimulationError(
                f"callback time {when} lies in the past (now={self._now}): "
                f"causality violation"
            )
        self._seq += 1
        seq = self._mon.on_schedule(self._seq, when, fn)
        heapq.heappush(self._heap, (when, seq, None, fn, args))

    def _schedule_event_at(self, event: Event, when: float) -> None:
        if when < self._now:
            raise SimulationError(
                f"event time {when} lies in the past (now={self._now}): "
                f"causality violation"
            )
        self._seq += 1
        seq = self._mon.on_schedule(self._seq, when, event)
        heapq.heappush(self._heap, (when, seq, event, None, None))

    def schedule_timer(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay}")
        pool = self._timer_pool
        h = pool.pop() if pool else TimerHandle()
        self._seq += 1
        when = self._now + delay
        h._when = when
        h._fn = fn
        h._args = args
        h._alive = True
        seq = self._mon.on_schedule(self._seq, when, fn)
        heapq.heappush(self._heap, (when, seq, False, h, None))
        return h

    def step(self) -> None:
        """Process the next scheduled heap entry (event, callback, timer)."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule: nothing left to run")
        item = heapq.heappop(self._heap)
        self._now = item[0]
        self.events_processed += 1
        self._mon.on_execute(item)
        _fire(item[2], item[3], item[4], self._timer_pool)

    def run(self, until: Optional[float] = None) -> None:
        """Monitored runs go through step() so every popped entry is
        reported to the ShadowScheduler; speed is secondary here."""
        if until is not None and until < self._now:
            raise ValueError(f"until ({until}) lies in the past (now={self._now})")
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                break
            self.step()
        if until is not None:
            self._now = until

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._heap[0][0] if self._heap else _INF

    def stats(self) -> dict:
        return {
            "core": "heap",
            "schedules": self._seq,
            "near_depth": len(self._heap),
            "timer_pool_size": len(self._timer_pool),
        }
