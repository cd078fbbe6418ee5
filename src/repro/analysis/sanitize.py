"""Runtime sanitizers for the simulator's ownership invariants.

Two sanitizers, both *zero overhead when off* (objects created while
sanitizing carry a checker; everything else carries ``None`` and pays
one attribute test that the branch predictor eats):

* :class:`SegmentSanitizer` -- tracks the live/poisoned state of every
  :class:`~repro.core.segment.CommSegment` allocation and catches
  double-free, free-of-never-allocated, overlapping free,
  use-after-free *writes*, and leak-at-teardown.
* :class:`RingSanitizer` -- descriptor/free-queue invariants on
  :class:`~repro.core.queues.DescriptorRing`: occupancy can never
  exceed capacity, a descriptor object may not be queued twice
  (recycle-before-consume), and free-queue buffers may not overlap.

Sanitizers start off.  Arm them with :func:`enable`, or for a block
with :func:`sanitized` (which also asserts leak-freedom at exit).  The
core-layer and analysis-layer tests run with them armed.

This module is intentionally dependency-light (stdlib + the error
types) so the core data-path modules can import it without dragging in
the static-analysis machinery.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.core.errors import QueueInvariantError, SegmentOwnershipError


_STATE = {"enabled": False}

#: Weak references to every SegmentSanitizer created while enabled, in
#: creation order, so a fixture can assert leak-freedom at teardown.
_SEGMENT_REGISTRY: List["weakref.ref[SegmentSanitizer]"] = []


def enabled() -> bool:
    """Are sanitizers armed for objects created from now on?"""
    return _STATE["enabled"]


def enable(on: bool = True) -> bool:
    """Arm/disarm sanitizers; returns the previous setting."""
    previous = _STATE["enabled"]
    _STATE["enabled"] = on
    return previous


def check_leaks(since: int = 0) -> None:
    """Raise :class:`SegmentOwnershipError` if any sanitized segment
    (registered at index >= ``since``) still holds live allocations."""
    for ref in _SEGMENT_REGISTRY[since:]:
        sanitizer = ref()
        if sanitizer is not None:
            sanitizer.check_teardown()


@contextmanager
def sanitized():
    """Context manager: arm sanitizers, and at exit verify that every
    segment created inside the block was torn down leak-free."""
    mark = len(_SEGMENT_REGISTRY)
    previous = enable(True)
    try:
        yield
        check_leaks(since=mark)
    finally:
        enable(previous)


class SegmentSanitizer:
    """Ownership tracker for one communication segment.

    The segment itself always validates frees against its live
    allocation table (the hardened ``free()``); the sanitizer layers
    the *history-dependent* checks on top: poisoned (freed) regions for
    use-after-free writes and precise double-free classification, plus
    leak accounting.
    """

    __slots__ = ("name", "poisoned", "live", "allocs", "frees",
                 "writes_checked", "__weakref__")

    def __init__(self, name: str = ""):
        self.name = name
        #: offset -> length for regions freed and not since reallocated.
        self.poisoned: Dict[int, int] = {}
        #: mirror of the segment's live table, for leak reports.
        self.live: Dict[int, int] = {}
        self.allocs = 0
        self.frees = 0
        self.writes_checked = 0
        _SEGMENT_REGISTRY.append(weakref.ref(self))

    # -- hooks called by CommSegment ------------------------------------
    def on_alloc(self, offset: int, length: int) -> None:
        self.allocs += 1
        self.live[offset] = length
        end = offset + length
        for off in list(self.poisoned):
            if off < end and offset < off + self.poisoned[off]:
                del self.poisoned[off]  # region recycled: no longer stale

    def on_free(self, offset: int, length: int) -> None:
        self.frees += 1
        del self.live[offset]
        self.poisoned[offset] = length

    def check_write(self, offset: int, length: int) -> None:
        """Writes into freed-but-not-reallocated regions are
        use-after-free: the allocator may hand that memory to the next
        alloc (or the NI may scatter a message there) at any moment."""
        self.writes_checked += 1
        if not self.poisoned:
            return
        end = offset + length
        for off, ln in self.poisoned.items():
            if off < end and offset < off + ln:
                raise SegmentOwnershipError(
                    f"use-after-free: write [{offset}, {end}) touches freed "
                    f"buffer [{off}, {off + ln}) of segment {self.name!r}"
                )

    def was_freed(self, offset: int) -> bool:
        return offset in self.poisoned

    def check_teardown(self) -> None:
        """Leak check: every allocation must have been freed."""
        if self.live:
            leaked = sorted(self.live.items())
            total = sum(length for _, length in leaked)
            head = ", ".join(f"[{o}, {o + l})" for o, l in leaked[:5])
            more = "..." if len(leaked) > 5 else ""
            raise SegmentOwnershipError(
                f"leak-at-teardown: segment {self.name!r} still holds "
                f"{len(leaked)} live allocation(s) totalling {total} bytes: "
                f"{head}{more}"
            )


#: Types whose instances may be interned/shared: pushing one twice is
#: not evidence of descriptor recycling.
_IDENTITYLESS = (str, bytes, int, float, bool, frozenset, type(None), tuple)


class RingSanitizer:
    """Descriptor-ring invariants for one :class:`DescriptorRing`."""

    __slots__ = ("name", "queued_ids", "free_ranges")

    def __init__(self, name: str = ""):
        self.name = name
        #: id() of every descriptor object currently in the ring.
        self.queued_ids: Dict[int, bool] = {}
        #: id(descriptor) -> (offset, length) for queued free buffers.
        self.free_ranges: Dict[int, Tuple[int, int]] = {}

    def on_push(self, item, occupancy: int, capacity: int) -> None:
        if occupancy >= capacity:
            raise QueueInvariantError(
                f"ring {self.name!r} overflow: push at occupancy "
                f"{occupancy}/{capacity} (back-pressure bypassed)"
            )
        if isinstance(item, _IDENTITYLESS):
            # Interned immutables (test payloads, sentinels) share id();
            # recycle tracking only means something for descriptor objects.
            return
        key = id(item)
        if key in self.queued_ids:
            raise QueueInvariantError(
                f"ring {self.name!r}: descriptor {item!r} pushed while "
                f"still queued (recycled before the consumer popped it)"
            )
        bounds = self._buffer_bounds(item)
        if bounds is not None:
            offset, length = bounds
            end = offset + length
            for other_off, other_len in self.free_ranges.values():
                if other_off < end and offset < other_off + other_len:
                    raise QueueInvariantError(
                        f"ring {self.name!r}: free buffer [{offset}, {end}) "
                        f"overlaps queued buffer [{other_off}, "
                        f"{other_off + other_len}); the NI would scatter two "
                        f"messages into the same memory"
                    )
            self.free_ranges[key] = bounds
        self.queued_ids[key] = True

    def on_pop(self, item) -> None:
        self.queued_ids.pop(id(item), None)
        self.free_ranges.pop(id(item), None)

    def on_drain(self, items) -> None:
        for item in items:
            self.on_pop(item)

    @staticmethod
    def _buffer_bounds(item) -> Optional[Tuple[int, int]]:
        # FreeDescriptor-shaped objects carry a single (offset, length)
        # buffer grant; duck-typed so queues.py need not import it.
        if type(item).__name__ == "FreeDescriptor":
            return (item.offset, item.length)
        return None
