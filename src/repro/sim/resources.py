"""FIFO stores and counted resources for simulated processes."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List, Optional

from repro.sim import engine as _engine
from repro.sim.engine import Event, SimulationError, Simulator, Timeout


class Store:
    """A FIFO channel between processes.

    Producers call ``try_put``, which never blocks and reports success
    explicitly: NI hardware and kernel queues *drop* on overflow instead
    of exerting back-pressure.  Consumers either ``yield store.get()``
    (blocks while the store is empty) or poll with ``try_get``.
    """

    __slots__ = ("sim", "capacity", "name", "items", "_getters")

    def __init__(self, sim: Simulator, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def get(self) -> Event:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"store:{self.name}", "w")
        event = Event(self.sim)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False (drop) when full."""
        if _engine.access_hook is not None:
            _engine.access_hook(
                id(self), f"store:{self.name}", "r" if self.is_full else "w"
            )
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if len(self.items) < self.capacity:
            self.items.append(item)
            return True
        return False

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty."""
        if _engine.access_hook is not None:
            _engine.access_hook(
                id(self), f"store:{self.name}", "w" if self.items else "r"
            )
        if self.items:
            return self.items.popleft()
        return None


class Resource:
    """A counted resource (CPU, DMA engine, bus) with FIFO queueing.

    A process holds it with ``yield from resource.use(cost)``;
    callback-driven models use ``resource.hold(cost, fn, *args)``.
    The event-based ``request()``/``release()`` pair is the reference
    that ``use`` and ``hold`` are tested against.
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_queue", "_seq")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        # heap of (priority, seq, grant, duration); duration is None for
        # a request() waiter and the hold time for a use() or hold()
        # waiter, whose grant is an Event or a _HoldGrant
        self._queue: List[tuple] = []
        self._seq = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def request(self, priority: int = 0) -> Event:
        """Request the resource; lower ``priority`` values are served
        first (interrupt-level work preempts queued process-level work,
        though never a holder mid-use)."""
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"res:{self.name}", "w")
        event = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._seq += 1
            heapq.heappush(self._queue, (priority, self._seq, event, None))
        return event

    def release(self, request: Event) -> None:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"res:{self.name}", "w")
        if not request.triggered:
            raise SimulationError(
                f"releasing a request of {self.name!r} that was never granted"
            )
        self._release_held()

    def _release_held(self) -> None:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"res:{self.name}", "w")
        if self._in_use <= 0:
            raise SimulationError(f"release on idle resource {self.name!r}")
        if self._queue:
            _, _, event, duration = heapq.heappop(self._queue)
            if duration is None:
                event.succeed()
            else:
                # Hand over to a use() waiter: a bare callback now, in
                # the slot a wake-up event would take, starts its hold
                # timer, so the waiter resumes once, at the end of it.
                self.sim.schedule_callback(0.0, event.succeed, None, duration)
        else:
            self._in_use -= 1

    def use(self, duration: float, priority: int = 0):
        """Generator helper: hold the resource for ``duration``.

        A free resource is taken at once and one timeout is the only
        scheduled occurrence.  A contended one queues a grant event that
        fires at the end of the hold (see ``_release_held``)."""
        if self._in_use < self.capacity and not self._queue:
            if _engine.access_hook is not None:
                _engine.access_hook(id(self), f"res:{self.name}", "w")
            timeout = Timeout(self.sim, duration)  # rejects a bad duration
            self._in_use += 1
            yield timeout
            self._release_held()
            return
        if not (duration >= 0):
            raise ValueError(f"negative hold duration: {duration}")
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"res:{self.name}", "w")
        grant = Event(self.sim)
        self._seq += 1
        heapq.heappush(self._queue, (priority, self._seq, grant, duration))
        yield grant
        self._release_held()

    def hold(self, duration: float, fn, *args: Any) -> None:
        """Callback form of :meth:`use`: hold for ``duration``, release,
        then call ``fn(*args)``.

        A free resource is taken at once and one callback, at the end of
        the hold, is the only scheduled occurrence -- the slot a
        ``use`` caller's timeout takes.  A contended one queues a grant
        like a ``use`` waiter's, so ``_release_held`` hands it over in
        the same zero-delay slot and then the hold ends in the slot the
        waiter's resume would take."""
        if not (duration >= 0):
            raise ValueError(f"negative hold duration: {duration}")
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"res:{self.name}", "w")
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            self.sim.schedule_callback(duration, self._end_hold, fn, args)
            return
        self._seq += 1
        heapq.heappush(
            self._queue, (0, self._seq, _HoldGrant(self, fn, args), duration)
        )

    def hold_until(self, end: float, fn, *args: Any) -> None:
        """:meth:`hold` of a free resource up to the instant ``end``,
        for a hold that began earlier on a clock the holder kept itself:
        ``hold(end - now)`` would end at ``now + (end - now)``, which
        need not round to ``end``."""
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"res:{self.name}", "w")
        if self._in_use >= self.capacity or self._queue:
            raise SimulationError(f"resource {self.name!r} is not free")
        self.sim.schedule_callback_at(end, self._end_hold, fn, args)
        self._in_use += 1

    def _end_hold(self, fn, args: tuple) -> None:
        self._release_held()
        fn(*args)


class _HoldGrant:
    """A queued :meth:`Resource.hold`: granted through the same
    ``succeed(None, duration)`` call as a ``use`` waiter's event, it
    schedules the end of the hold as a bare callback."""

    __slots__ = ("res", "fn", "args")

    def __init__(self, res: Resource, fn, args: tuple):
        self.res = res
        self.fn = fn
        self.args = args

    def succeed(self, _value: None, duration: float) -> None:
        res = self.res
        res.sim.schedule_callback(duration, res._end_hold, self.fn, self.args)
