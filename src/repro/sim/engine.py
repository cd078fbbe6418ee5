"""Core event loop: events, timeouts, processes, and ``AnyOf``.

Simulated time is a float in microseconds.  All scheduling is
deterministic: events scheduled for the same instant fire in the order
they were scheduled (a monotonically increasing sequence number breaks
ties).

The scheduler is a two-tier calendar queue:

* **front slot** — one entry held in plain closure cells
  (when/seq/kind/fn/args) outside any container.  Model code dominated
  by schedule-one-pop-one chains (link deliveries, firmware polls)
  never touches the heap at all: scheduling into an empty front slot is
  five cell stores, popping it is five cell reads.
* **near heap** — every other entry goes to a classic ``heapq`` binary
  heap (C-implemented; at the depths this repo's models produce it
  beats a bucketed ring, which is why the "ring of time buckets"
  degenerates to one sorted bucket plus the front slot — see DESIGN.md
  §5 for the measurements).

Entries are uniform 5-tuples ``(when, seq, kind, a, b)`` where ``kind``
discriminates the payload::

    (when, seq, None,  fn, args)     # a scheduled callback
    (when, seq, event, None, None)   # a triggered Event

``seq`` is unique, so tuple comparison never reaches the third element
and the shapes coexist safely.  There is no cancellable entry: a model
that needs to disarm a callback (TCP's protocol timer) passes it a
token and has it return at once when the token is stale.

Instrumentation is the one place the front slot is dropped.
:func:`monitored` arms the engine's single instrumentation slot for a
block (``race.detected()`` and ``obs.collecting()`` both go through
it); every ``Simulator()`` built inside the block is a
:class:`_MonitoredSimulator`, which keeps every entry in a single
totally ordered heap so the monitor can see each push and pop and
replace the tie-break key.  It fires entries with the same
dispatch rules and the same ``(time, seq)`` order as the calendar core,
which ``tests/sim/test_core_equivalence.py`` checks entry by entry.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Any, Callable, Generator, Iterable, Iterator, List, Optional

_INF = float("inf")

#: The engine's single instrumentation slot, armed only inside
#: :func:`monitored`.  ``_monitor`` is the one monitor shared by every
#: Simulator built while armed; ``access_hook`` is called by state
#: objects (segments, rings, resources, links) on reads/writes so the
#: race detector can attribute accesses to the executing heap entry.
#: Both are ``None`` in normal operation: unmonitored simulators carry
#: ``self._mon = None`` and the hot run loop is entirely untouched.
_monitor: Any = None
access_hook: Optional[Callable[[int, str, str], None]] = None


@contextmanager
def monitored(
    monitor: Any, access: Optional[Callable[[int, str, str], None]] = None
) -> Iterator[None]:
    """Install ``monitor`` (and the state-access hook ``access``) for
    the block.  Only simulators constructed inside the block are
    monitored.  Raises ``RuntimeError`` if the slot is already armed:
    two monitors cannot share one schedule."""
    global _monitor, access_hook
    if _monitor is not None:
        raise RuntimeError(
            f"engine instrumentation already armed by "
            f"{type(_monitor).__name__}; monitors cannot nest"
        )
    previous = (_monitor, access_hook)
    _monitor, access_hook = monitor, access
    try:
        yield
    finally:
        _monitor, access_hook = previous


class SimulationError(RuntimeError):
    """Raised for illegal uses of the engine (double-trigger, bad yield...)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called, and runs its callbacks when the simulator
    pops it off the schedule.  Events may only trigger once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

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
        if not (delay >= 0):
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
        if not (delay >= 0):
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
        if not (delay >= 0):
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


class Process(Event):
    """A running generator; doubles as the event of its own termination.

    The generator yields :class:`Event` instances.  When the yielded
    event triggers, the process resumes with the event's value (or the
    exception, if the event failed).
    """

    __slots__ = ("name", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        # Bound send/throw cached: _resume is the single hottest method
        # in process-based models (one call per resumption).
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                # Defuse: the waiting process handles the failure.
                event._defused = True
                next_event = self._throw(event._value)
            # A non-event yield gets a SimulationError thrown in; what
            # the generator yields after catching it is resumed as usual.
            while not isinstance(next_event, Event):
                next_event = self._throw(
                    SimulationError(
                        f"process {self.name!r} yielded a non-event: {next_event!r}"
                    )
                )
        except StopIteration as stop:
            self._exit(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if next_event.callbacks is None:
            # Already processed: resume immediately at the current time.
            stub = Event(self.sim)
            stub._ok = next_event._ok
            stub._value = next_event._value
            stub.callbacks.append(self._resume)
            self.sim._schedule(stub, 0.0)
        else:
            next_event.callbacks.append(self._resume)

    def _exit(self, value: Any) -> None:
        """Finish successfully with ``value``.

        With no callback attached the exit entry would do nothing when
        popped, so none is scheduled: the process is marked processed on
        the spot.  Dropping an entry leaves the ``(when, seq)`` order of
        every other entry unchanged, and a later ``yield`` of this
        process resumes through the already-processed stub path.  A
        failed exit is always scheduled: popping it is what surfaces an
        unhandled exception."""
        if self.callbacks:
            self.succeed(value)
        else:
            self._ok = True
            self._value = value
            self.callbacks = None


class AnyOf(Event):
    """Triggers when the first of ``events`` triggers (at once if
    ``events`` is empty); fails with the first failure."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self.events and self._ok is None:
            self.succeed({})

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        # Report only events that actually fired (were processed) by
        # the time the condition was met.
        self.succeed(
            {
                e: e._value
                for e in self.events
                if (e.processed or e is event) and e._ok
            }
        )


def _build_calendar_core(sim: Any) -> tuple:
    """Build one calendar-queue scheduler for ``sim``.

    Returns the closures :class:`Simulator` installs as instance
    attributes: ``(schedule_callback, schedule_callback_at, _schedule,
    _schedule_event_at, run, peek, stats)``.  Only
    ``sim._now`` and ``sim.events_processed`` are touched on ``sim``.

    The scheduler state lives in closure cells rather than instance
    attributes: cell access is measurably cheaper than slot access in
    the two hottest functions (``schedule_callback`` and the run loop).
    ``sim._now`` stays a real slot because model code reads ``sim.now``
    mid-callback.

    Front-slot cells: ``fw`` (when; -1.0 = empty), ``fs`` (seq), ``fx``
    (kind: None/Event), ``f3``/``f4`` (payload).  Invariants:

    * a fill into an empty front does not look at the heap, so the
      front is not always the earliest entry: every pop compares it
      with ``heap[0]`` by ``(when, seq)``;
    * while the front is empty (``fw < 0``) the cells ``fx``/``f3``/
      ``f4`` are all None, so each fill path stores only the cells its
      entry kind uses.

    Each time guard is written ``not (x >= bound)`` so that a NaN time
    or delay fails it: a NaN ``when`` would never pop, and a NaN ``fw``
    would break the empty-front sentinel for the rest of the run.
    """
    INF = _INF
    push = heapq.heappush
    pop = heapq.heappop
    heap: List[tuple] = []
    seq = 0
    fw = -1.0
    fs = 0
    fx: Any = None
    f3: Any = None
    f4: Any = None
    pushes = 0

    def schedule_callback(delay, fn, *args):
        nonlocal seq, fw, fs, fx, f3, f4, pushes
        if not (delay >= 0):
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
        pushes += 1
        push(heap, e)

    def schedule_callback_at(when, fn, *args):
        nonlocal seq, fw, fs, fx, f3, f4, pushes
        if not (when >= sim._now):
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
        pushes += 1
        push(heap, e)

    def _schedule(event, delay=0.0):
        nonlocal seq, fw, fs, fx, f3, f4, pushes
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
        pushes += 1
        push(heap, e)

    def _schedule_event_at(event, when):
        nonlocal seq, fw, fs, fx, f3, f4, pushes
        if not (when >= sim._now):
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
        pushes += 1
        push(heap, e)

    def run(until=None):
        nonlocal fw, fx, f3, f4
        if until is None:
            limit = INF
        elif not (until >= sim._now):
            raise ValueError(f"until ({until}) lies in the past (now={sim._now})")
        else:
            limit = until
        # events_processed is settled once per run from the schedule
        # counts: entries scheduled during the run plus those pending at
        # its start, minus those still pending at its end.
        seq0 = seq
        pend0 = (fw >= 0.0) + len(heap)
        try:
            while True:
                # Select the next entry into (w, x, p, a); a stop at the
                # run limit leaves it scheduled.
                w = fw
                if w >= 0.0 and not (
                    heap and (heap[0][0] < w or (heap[0][0] == w and heap[0][1] < fs))
                ):
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
                else:
                    break
                sim._now = w
                # Dispatch; the same branches as _MonitoredSimulator.run.
                if x is None:
                    if a:
                        p(*a)
                    else:
                        p()
                else:
                    callbacks, x.callbacks = x.callbacks, None
                    for callback in callbacks:
                        callback(x)
                    if x._ok is False and not x._defused:
                        raise x._value
            if until is not None:
                sim._now = until
        finally:
            pend1 = (fw >= 0.0) + len(heap)
            sim.events_processed += (seq - seq0) + pend0 - pend1

    def peek():
        m = INF
        if fw >= 0.0:
            m = fw
        if heap and heap[0][0] < m:
            m = heap[0][0]
        return m

    def stats():
        return {
            "core": "calendar",
            "schedules": seq,
            "front_inserts": seq - pushes,
            "near_pushes": pushes,
            "near_depth": len(heap) + (fw >= 0.0),
        }

    return (schedule_callback, schedule_callback_at, _schedule,
            _schedule_event_at, run, peek, stats)


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
        "_schedule",
        "_schedule_event_at",
        "run",
        "peek",
        "stats",
    )

    def __new__(cls) -> "Simulator":
        # When instrumentation is armed, construction routes to the
        # monitored subclass so the base class never pays a per-schedule
        # ``_mon`` check: unarmed keeps the exact hot path.
        if cls is Simulator and _monitor is not None:
            return object.__new__(_MonitoredSimulator)
        return object.__new__(cls)

    def __init__(self):
        self._now = 0.0
        #: Total schedule entries processed (events + callbacks);
        #: perf metric.
        self.events_processed = 0
        #: ShadowScheduler monitor; always None here (armed construction
        #: routes to _MonitoredSimulator before this __init__ runs).
        self._mon = None
        (
            self.schedule_callback,
            self.schedule_callback_at,
            self._schedule,
            self._schedule_event_at,
            self.run,
            self.peek,
            self.stats,
        ) = _build_calendar_core(self)

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


class _MonitoredSimulator(Simulator):
    """Simulator variant built while instrumentation is armed.

    ``Simulator()`` constructs this subclass (via ``__new__``) inside
    :func:`monitored`, so the ShadowScheduler sees every heap
    push and pop without the base class carrying any per-event checks.
    The monitor may replace the tie-break key (``on_schedule``) to
    perturb same-timestamp ordering; pops are reported via
    ``on_execute`` before the entry runs.  All entries live in one
    binary heap: perturbed keys need a single totally-ordered container.
    A monitor that returns the sequence number unchanged reproduces the
    calendar core's order exactly.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self):
        self._now = 0.0
        self._heap: List[tuple] = []
        self._seq = 0
        self.events_processed = 0
        self._mon = _monitor

    def _push(self, when: float, target: Any, kind: Any, a: Any, b: Any) -> None:
        """Push one entry under the monitor's tie-break key."""
        self._seq += 1
        seq = self._mon.on_schedule(self._seq, when, target)
        heapq.heappush(self._heap, (when, seq, kind, a, b))

    # Negative and NaN delays cannot reach ``_schedule``:
    # Timeout.__init__ and Event.succeed/fail validate before calling.
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._push(self._now + delay, event, event, None, None)

    def schedule_callback(self, delay: float, fn: Callable, *args: Any) -> None:
        if not (delay >= 0):
            raise ValueError(f"negative callback delay: {delay}")
        self._push(self._now + delay, fn, None, fn, args)

    def schedule_callback_at(self, when: float, fn: Callable, *args: Any) -> None:
        if not (when >= self._now):
            raise SimulationError(
                f"callback time {when} lies in the past (now={self._now}): "
                f"causality violation"
            )
        self._push(when, fn, None, fn, args)

    def _schedule_event_at(self, event: Event, when: float) -> None:
        if not (when >= self._now):
            raise SimulationError(
                f"event time {when} lies in the past (now={self._now}): "
                f"causality violation"
            )
        self._push(when, event, event, None, None)

    def run(self, until: Optional[float] = None) -> None:
        """Pop, report, fire: every popped entry goes to the monitor's
        ``on_execute`` before it runs; speed is secondary here."""
        if until is None:
            limit = _INF
        elif not (until >= self._now):
            raise ValueError(f"until ({until}) lies in the past (now={self._now})")
        else:
            limit = until
        heap = self._heap
        on_execute = self._mon.on_execute
        while heap and heap[0][0] <= limit:
            item = heapq.heappop(heap)
            self._now = item[0]
            self.events_processed += 1
            on_execute(item)
            # Dispatch; the same branches as the calendar core's run loop.
            _, _, x, p, a = item
            if x is None:
                if a:
                    p(*a)
                else:
                    p()
            else:
                callbacks, x.callbacks = x.callbacks, None
                for callback in callbacks:
                    callback(x)
                if x._ok is False and not x._defused:
                    raise x._value
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
        }
