"""User-level convenience layer over the raw U-Net primitives.

The architecture's primitives are deliberately low-level (descriptor
rings and segment offsets).  :class:`UNetSession` is the thin user
library each process links against: it charges the host-side costs
(descriptor stores, polls, copies) on the owning host's CPU and offers
blocking helpers.  All protocol layers in this repository (UAM, UDP,
TCP) are written against this class, demonstrating the paper's claim
that the interface supports both legacy protocols and novel
abstractions.

Every method that advances simulated time is a generator meant to be
``yield from``-ed inside a simulated process.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro import obs
from repro.core.descriptors import (
    SINGLE_CELL_MAX,
    FreeDescriptor,
    RecvDescriptor,
    SendDescriptor,
)
from repro.core.endpoint import Endpoint
from repro.core.errors import QueueFullError
from repro.host import Workstation


class UNetSession:
    """One process's handle on one endpoint."""

    def __init__(self, host: Workstation, endpoint: Endpoint, caller: str):
        endpoint.check_owner(caller)
        self.host = host
        self.endpoint = endpoint
        self.caller = caller
        ni_costs = host.ni.costs if host.ni is not None else None
        self._post_send_us = getattr(ni_costs, "host_post_send_us", 1.0)
        self._recv_us = getattr(ni_costs, "host_recv_us", 1.5)
        self._post_free_us = getattr(ni_costs, "host_post_free_us", 0.8)
        #: offset -> size of every receive buffer this session provided
        self._buffer_sizes: Dict[int, int] = {}

    @property
    def host_recv_cost_us(self) -> float:
        """Host-side cost of popping one receive descriptor (for layers
        that poll with ``recv_poll`` and charge the cost themselves)."""
        return self._recv_us

    # -- segment management (process-managed, §3.4) ------------------------
    def alloc(self, length: int) -> int:
        return self.endpoint.segment.alloc(length)

    def free(self, offset: int, length: int) -> None:
        self.endpoint.segment.free(offset, length)

    def write_segment(self, offset: int, data: bytes):
        """Copy application data into the communication segment."""
        self.endpoint.segment.write(offset, data)
        _o = obs.active
        _sp = (
            _o.begin(self.host.sim.now, "copy_in", "host", host=self.host.name)
            if _o is not None
            else None
        )
        yield from self.host.copy(len(data))
        if _sp is not None:
            _o.annotate(_sp, bytes=len(data))
            _o.end(_sp, self.host.sim.now)

    def read_segment(self, offset: int, length: int):
        """Copy message data out of the segment into application memory."""
        data = self.endpoint.segment.read(offset, length)
        _o = obs.active
        _sp = (
            _o.begin(self.host.sim.now, "copy_out", "host", host=self.host.name)
            if _o is not None
            else None
        )
        yield from self.host.copy(length)
        if _sp is not None:
            _o.annotate(_sp, bytes=length)
            _o.end(_sp, self.host.sim.now)
        return data

    def peek_segment(self, offset: int, length: int) -> bytes:
        """Inspect message data *in place* -- the true-zero-copy case of
        §3.4 (e.g. reading an acknowledgment without copying it out)."""
        return self.endpoint.segment.read(offset, length)

    # -- send ---------------------------------------------------------------
    def make_descriptor(
        self, channel: int, data: Optional[bytes] = None,
        bufs: Tuple[Tuple[int, int], ...] = (),
    ) -> SendDescriptor:
        """Build a send descriptor; small payloads ride inline (§3.4)."""
        if data is not None:
            if len(data) > SINGLE_CELL_MAX:
                raise ValueError(
                    f"inline payload limited to {SINGLE_CELL_MAX} bytes; "
                    "compose larger messages in the segment"
                )
            return SendDescriptor(channel=channel, inline=data)
        return SendDescriptor(channel=channel, bufs=tuple(bufs))

    def post_send(self, descriptor: SendDescriptor):
        """Push a descriptor; returns False on back-pressure."""
        _o = obs.active
        _sp = (
            _o.begin(self.host.sim.now, "post_send", "host", host=self.host.name)
            if _o is not None
            else None
        )
        yield from self.host.compute(self._post_send_us)
        ok = self.endpoint.post_send(descriptor, self.caller)
        if _sp is not None:
            _o.end(_sp, self.host.sim.now)
        return ok

    def send(self, descriptor: SendDescriptor):
        """Push a descriptor, waiting out back-pressure (§3.1)."""
        while True:
            ok = yield from self.post_send(descriptor)
            if ok:
                return
            yield self.endpoint.send_queue.wait_space()

    def send_copy(self, channel: int, data: bytes, tx_offset: Optional[int] = None):
        """Convenience: copy ``data`` into the segment (unless it fits a
        descriptor inline) and send it.  Returns the descriptor.

        When ``tx_offset`` is None a transient buffer is allocated and
        freed after injection.
        """
        if len(data) <= SINGLE_CELL_MAX:
            desc = self.make_descriptor(channel, data=data)
            yield from self.send(desc)
            return desc
        transient = tx_offset is None
        offset = self.alloc(len(data)) if transient else tx_offset
        try:
            yield from self.write_segment(offset, data)
            desc = self.make_descriptor(channel, bufs=((offset, len(data)),))
            yield from self.send(desc)
            if transient:
                yield self.endpoint.wait_send_complete(desc)
        except Exception:
            if transient:
                # the transient buffer is invisible to the caller; it
                # must not outlive the failed send
                self.free(offset, len(data))
            raise
        if transient:
            self.free(offset, len(data))
        return desc

    # -- receive --------------------------------------------------------------
    def provide_receive_buffers(self, count: int, size: int = 4160):
        """Allocate ``count`` buffers of ``size`` bytes and post them on the
        free queue (the UAM layer uses 4160-byte buffers, §5.2)."""
        offsets = []
        for _ in range(count):
            offset = self.alloc(size)
            yield from self.host.compute(self._post_free_us)
            if not self.endpoint.post_free(FreeDescriptor(offset, size), self.caller):
                self.free(offset, size)
                raise QueueFullError("free queue is full")
            self._buffer_sizes[offset] = size
            offsets.append(offset)
        return offsets

    def repost_free(self, descriptor: RecvDescriptor):
        """Recycle a consumed message's buffers back onto the free queue."""
        if descriptor.is_inline:
            return
        _o = obs.active
        _sp = (
            _o.begin(self.host.sim.now, "post_free", "host", host=self.host.name)
            if _o is not None
            else None
        )
        for offset, _used in descriptor.bufs:
            yield from self.host.compute(self._post_free_us)
            self.endpoint.post_free(
                FreeDescriptor(offset, self._buffer_sizes[offset]), self.caller
            )
        if _sp is not None:
            _o.end(_sp, self.host.sim.now)

    def recv_poll(self) -> Optional[RecvDescriptor]:
        """Non-blocking receive-queue check (the polling model)."""
        return self.endpoint.recv_poll(self.caller)

    def recv(self):
        """Blocking receive: wait for a message, then pop it."""
        while True:
            desc = self.endpoint.recv_poll(self.caller)
            if desc is not None:
                _o = obs.active
                _sp = (
                    _o.begin(self.host.sim.now, "recv", "host", host=self.host.name)
                    if _o is not None
                    else None
                )
                yield from self.host.compute(self._recv_us)
                if _sp is not None:
                    _o.end(_sp, self.host.sim.now)
                return desc
            yield self.endpoint.wait_recv(self.caller)

    def recv_payload(self, descriptor: RecvDescriptor):
        """Copy a received message out into application memory (an
        inline message is free of buffer management but still a tiny
        copy)."""
        data = self.endpoint.gather(descriptor)
        yield from self.host.copy(len(data))
        return data

    def peek_payload(self, descriptor: RecvDescriptor) -> bytes:
        """Read a received message in place (no copy charged) -- §3.4's
        true zero copy for data that needs no long-term storage."""
        return self.endpoint.gather(descriptor)
