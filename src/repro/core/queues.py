"""Fixed-size descriptor rings with back-pressure and wait events (§3.1).

A ring never blocks its producer: ``push`` returns ``False`` when full,
which is exactly the back-pressure the paper specifies ("the network
interface will simply leave the descriptor in the queue and eventually
exert back-pressure to the user process when the queue becomes full").

Consumers (the NI firmware model, or the application polling its
receive queue) either poll with ``pop``/``peek`` or obtain one-shot
events with :meth:`wait_nonempty`.  The *almost-full* condition backs
the second upcall condition of §3.1.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from repro import obs
from repro.analysis import sanitize
from repro.sim import Event, Simulator
from repro.sim import engine as _engine


class DescriptorRing:
    """Bounded FIFO of descriptors with notification events."""

    def __init__(
        self,
        sim: Simulator,
        capacity: int,
        name: str = "ring",
        almost_full_fraction: float = 0.75,
    ):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        if not 0.0 < almost_full_fraction <= 1.0:
            raise ValueError("almost_full_fraction must be in (0, 1]")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.almost_full_level = max(1, int(capacity * almost_full_fraction))
        self._items: Deque[Any] = deque()
        self._nonempty_waiters: List[Event] = []
        self._almost_full_waiters: List[Event] = []
        self._space_waiters: List[Event] = []
        self.pushed = 0
        self.popped = 0
        self.rejected = 0
        self._san = sanitize.RingSanitizer(name) if sanitize.enabled() else None
        # Metric keys are precomputed: the guarded hot path pays no
        # per-operation string formatting.
        self._k_depth = f"ring.{name}.depth"
        self._k_rejected = f"ring.{name}.rejected"

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def is_almost_full(self) -> bool:
        return len(self._items) >= self.almost_full_level

    def push(self, item: Any) -> bool:
        """Append a descriptor; False (back-pressure) when the ring is full."""
        if _engine.access_hook is not None:
            _engine.access_hook(
                id(self), f"ring:{self.name}", "r" if self.is_full else "w"
            )
        if self.is_full:
            self.rejected += 1
            _o = obs.active
            if _o is not None:
                _o.count(self._k_rejected)
            return False
        if self._san is not None:
            self._san.on_push(item, len(self._items), self.capacity)
        self._items.append(item)
        self.pushed += 1
        _o = obs.active
        if _o is not None:
            depth = len(self._items)
            _o.sample(self.sim._now, self._k_depth, depth)
            _o.observe(self._k_depth, depth)
        if self._nonempty_waiters:
            waiters, self._nonempty_waiters = self._nonempty_waiters, []
            for event in waiters:
                event.succeed()
        if self.is_almost_full and self._almost_full_waiters:
            waiters, self._almost_full_waiters = self._almost_full_waiters, []
            for event in waiters:
                event.succeed()
        return True

    def pop(self) -> Optional[Any]:
        """Remove and return the oldest descriptor, or None when empty."""
        if _engine.access_hook is not None:
            _engine.access_hook(
                id(self), f"ring:{self.name}", "w" if self._items else "r"
            )
        if not self._items:
            return None
        item = self._items.popleft()
        if self._san is not None:
            self._san.on_pop(item)
        self.popped += 1
        _o = obs.active
        if _o is not None:
            depth = len(self._items)
            _o.sample(self.sim._now, self._k_depth, depth)
            _o.observe(self._k_depth, depth)
        if self._space_waiters:
            waiters, self._space_waiters = self._space_waiters, []
            for event in waiters:
                event.succeed()
        return item

    def peek(self) -> Optional[Any]:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"ring:{self.name}", "r")
        return self._items[0] if self._items else None

    def wait_nonempty(self) -> Event:
        """One-shot event: triggers when the ring holds a descriptor.

        Triggers immediately if it already does.
        """
        event = Event(self.sim)
        if self._items:
            event.succeed()
        else:
            self._nonempty_waiters.append(event)
        return event

    def wake_waiters(self) -> None:
        """Fire every pending :meth:`wait_nonempty` event, empty or not,
        so a consumer can notice its endpoint was destroyed."""
        waiters, self._nonempty_waiters = self._nonempty_waiters, []
        for event in waiters:
            event.succeed()

    def wait_almost_full(self) -> Event:
        """One-shot event for the §3.1 'receive queue is almost full'
        upcall condition."""
        event = Event(self.sim)
        if self.is_almost_full:
            event.succeed()
        else:
            self._almost_full_waiters.append(event)
        return event

    def wait_space(self) -> Event:
        """One-shot event: triggers when the ring is (or becomes) not full."""
        event = Event(self.sim)
        if not self.is_full:
            event.succeed()
        else:
            self._space_waiters.append(event)
        return event

    def drain(self) -> List[Any]:
        """Pop everything currently queued (single-upcall consumption, §3.1)."""
        if _engine.access_hook is not None:
            _engine.access_hook(
                id(self), f"ring:{self.name}", "w" if self._items else "r"
            )
        items = list(self._items)
        self._items.clear()
        if self._san is not None:
            self._san.on_drain(items)
        self.popped += len(items)
        if items and self._space_waiters:
            waiters, self._space_waiters = self._space_waiters, []
            for event in waiters:
                event.succeed()
        return items
