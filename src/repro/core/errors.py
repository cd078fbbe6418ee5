"""Errors raised by the U-Net architecture layers."""

from __future__ import annotations


class UNetError(Exception):
    """Base class for all U-Net architecture errors."""


class ProtectionError(UNetError):
    """A process touched an endpoint, segment, or channel it does not own,
    or presented an unregistered tag.  (Paper §3.2: protection boundaries.)
    """


class ResourceLimitError(UNetError):
    """Endpoint/segment creation exceeded kernel-enforced resource limits
    (pinned memory, DMA space, NI memory -- paper §4.2.4)."""


class ChannelError(UNetError):
    """Channel setup/teardown failure (no route, authentication denied,
    unknown destination)."""


class SegmentRangeError(UNetError, IndexError):
    """An access fell outside the communication segment or a buffer."""


class SegmentOwnershipError(SegmentRangeError):
    """A buffer operation violated segment ownership: double free, free
    of a never-allocated or overlapping region, a use-after-free write,
    or a leak at teardown.  §3.1/§3.4 push buffer management into user
    code; this error is the architecture catching user code cheating.
    """


class QueueFullError(UNetError):
    """A descriptor ring was full (back-pressure, paper §3.1)."""


class QueueInvariantError(UNetError):
    """A descriptor ring broke an internal invariant: occupancy above
    capacity, or a descriptor recycled onto the ring before the
    consumer popped it (detected by the armed ring sanitizer)."""
