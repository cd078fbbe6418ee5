"""Communication segments: the pinned memory regions that hold message data.

Per §3.1/§3.4 a communication segment is a limited-size region of
memory, pinned to physical pages and mapped into the NI's DMA space.
Send-buffer management inside the segment is *entirely up to the
process*; the architecture only requires buffers to lie within the
segment and be aligned.  A simple first-fit allocator is provided as a
convenience for applications, but raw offset access is the primitive.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import obs
from repro.analysis import sanitize
from repro.core.errors import SegmentOwnershipError, SegmentRangeError
from repro.sim import engine as _engine

#: NI DMA alignment requirement for buffers (paper §3.4).
BUFFER_ALIGNMENT = 8


def align_up(value: int, alignment: int = BUFFER_ALIGNMENT) -> int:
    return (value + alignment - 1) // alignment * alignment


class CommSegment:
    """A bounded, pinned buffer region owned by one endpoint.

    The segment stores real bytes: protocol layers above (UAM, UDP, TCP)
    genuinely compose and parse their packets here.
    """

    def __init__(self, size: int, owner: str = ""):
        if size <= 0:
            raise ValueError("segment size must be positive")
        self.size = size
        self.owner = owner
        self._mem = bytearray(size)
        # First-fit free list of (offset, length), kept sorted and merged.
        self._free: List[Tuple[int, int]] = [(0, size)]
        # Live allocations (offset -> aligned length): free() validates
        # against this table, so ownership bugs fail at the bad call.
        self._allocs: Dict[int, int] = {}
        self._san = (
            sanitize.SegmentSanitizer(owner or "segment")
            if sanitize.enabled()
            else None
        )

    # -- raw access ------------------------------------------------------
    def check_range(self, offset: int, length: int) -> None:
        if length < 0 or offset < 0 or offset + length > self.size:
            raise SegmentRangeError(
                f"range [{offset}, {offset}+{length}) outside segment of {self.size} bytes"
            )

    def write(self, offset: int, data: bytes) -> None:
        self.check_range(offset, len(data))
        if self._san is not None:
            self._san.check_write(offset, len(data))
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"seg:{self.owner or 'segment'}", "w")
        _o = obs.active
        if _o is not None:
            _o.count("segment.bytes_written", len(data))
        self._mem[offset : offset + len(data)] = data

    def read(self, offset: int, length: int) -> bytes:
        self.check_range(offset, length)
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"seg:{self.owner or 'segment'}", "r")
        _o = obs.active
        if _o is not None:
            _o.count("segment.bytes_read", length)
        return bytes(self._mem[offset : offset + length])

    # -- convenience allocator --------------------------------------------
    def alloc(self, length: int) -> int:
        """First-fit allocate an aligned buffer; returns its offset."""
        if length <= 0:
            raise ValueError("allocation length must be positive")
        need = align_up(length)
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"seg:{self.owner or 'segment'}", "w")
        for i, (off, avail) in enumerate(self._free):
            if avail >= need:
                if avail == need:
                    del self._free[i]
                else:
                    self._free[i] = (off + need, avail - need)
                self._allocs[off] = need
                if self._san is not None:
                    self._san.on_alloc(off, need)
                return off
        raise SegmentRangeError(
            f"segment exhausted: cannot allocate {length} bytes "
            f"({self.free_bytes} free, fragmented)"
        )

    def free(self, offset: int, length: int) -> None:
        """Return a buffer to the free list (must match a prior alloc)."""
        need = align_up(length)
        self.check_range(offset, need)
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"seg:{self.owner or 'segment'}", "w")
        if self._allocs.get(offset) != need:
            raise SegmentOwnershipError(self._describe_bad_free(offset, need))
        del self._allocs[offset]
        if self._san is not None:
            self._san.on_free(offset, need)
        self._free.append((offset, need))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for off, ln in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + ln)
            elif merged and merged[-1][0] + merged[-1][1] > off:
                raise SegmentOwnershipError(
                    f"double free or overlapping free at offset {off}"
                )
            else:
                merged.append((off, ln))
        self._free = merged

    def _describe_bad_free(self, offset: int, need: int) -> str:
        """Classify a rejected free for the error message (cold path)."""
        where = f"segment of {self.owner!r}" if self.owner else "segment"
        got = self._allocs.get(offset)
        if got is not None:
            return (
                f"free length mismatch at offset {offset} in {where}: "
                f"{got} bytes allocated, {need} freed"
            )
        if self._san is not None and self._san.was_freed(offset):
            return f"double free of buffer at offset {offset} in {where}"
        end = offset + need
        for live_off, live_len in self._allocs.items():
            if live_off < end and offset < live_off + live_len:
                return (
                    f"overlapping free [{offset}, {end}) in {where} cuts "
                    f"into live allocation [{live_off}, {live_off + live_len})"
                )
        return (
            f"free of never-allocated offset {offset} in {where} "
            f"(or already freed)"
        )

    def check_teardown(self) -> None:
        """Raise :class:`SegmentOwnershipError` when allocations leak.

        Only meaningful for code that manages buffers through the
        convenience allocator; raw-offset users have nothing to leak.
        """
        if self._san is not None:
            self._san.check_teardown()
        elif self._allocs:
            raise SegmentOwnershipError(
                f"leak-at-teardown: {len(self._allocs)} live allocation(s) "
                f"in segment of {self.owner!r}"
            )

    @property
    def live_allocations(self) -> int:
        return len(self._allocs)

    @property
    def free_bytes(self) -> int:
        return sum(length for _, length in self._free)
