"""Endpoints: an application's handle into the network (§3.1).

An endpoint bundles a communication segment with send, receive, and
free descriptor rings.  All application-facing operations verify the
caller's identity against the owning process -- endpoints, segments and
queues "are only accessible by the owning process" (§3.2).

The endpoint also holds the one copy of the NI side of the descriptor
protocol: taking a send descriptor, gathering its bytes, marking it
injected, and scattering a received message into free-queue buffers.
Every NI model and the kernel emulation (§3.5) call these steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.core.descriptors import FreeDescriptor, RecvDescriptor, SendDescriptor
from repro.core.errors import ProtectionError, UNetError
from repro.core.queues import DescriptorRing
from repro.core.segment import CommSegment
from repro.sim import Event, Simulator

#: Outcomes of :meth:`Endpoint.deliver_scattered`.
DELIVERED = "delivered"
NO_BUFFER = "no_buffer"
RING_FULL = "ring_full"


@dataclass
class Channel:
    """A registered communication channel (§3.2).

    Created only by the kernel agent after authentication; maps the
    endpoint to the network tag (here: a transmit/receive VCI pair) and
    records the peer for diagnostics.
    """

    ident: int
    endpoint: "Endpoint"
    tx_vci: int
    rx_vci: int
    peer_host: str
    open: bool = True

    def __repr__(self) -> str:
        return (
            f"<Channel {self.ident} ep={self.endpoint.name} "
            f"tx_vci={self.tx_vci} rx_vci={self.rx_vci} peer={self.peer_host}>"
        )


class Endpoint:
    """Communication segment + send/recv/free rings + upcall hooks.

    The application side (``post_send``, ``post_free``, ``recv_poll``
    ...) checks the caller's identity; the NI side (``take_send``,
    ``gather``, ``complete_send``, ``deliver``, ``deliver_scattered``)
    is the descriptor protocol every NI implementation serves.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        owner: str,
        segment_size: int = 64 * 1024,
        send_ring: int = 64,
        recv_ring: int = 64,
        free_ring: int = 64,
        emulated: bool = False,
    ):
        self.sim = sim
        self.name = name
        self.owner = owner
        self.emulated = emulated
        self.segment = CommSegment(segment_size, owner=owner)
        self.send_queue = DescriptorRing(sim, send_ring, name=f"{name}.sq")
        self.recv_queue = DescriptorRing(sim, recv_ring, name=f"{name}.rq")
        self.free_queue = DescriptorRing(sim, free_ring, name=f"{name}.fq")
        self.channels: Dict[int, Channel] = {}
        self.upcalls_enabled = True
        self._upcall_pending = False
        self._enable_waiters = []
        # Delivery statistics (visible to the owner; §7.4 feedback).
        self.messages_sent = 0
        self.messages_received = 0
        self.receive_drops = 0  # recv ring full -> message dropped
        self.no_buffer_drops = 0  # free queue empty -> message dropped
        self.destroyed = False

    # -- protection -----------------------------------------------------
    def check_owner(self, caller: str) -> None:
        if caller != self.owner:
            raise ProtectionError(
                f"process {caller!r} may not access endpoint {self.name!r} "
                f"owned by {self.owner!r}"
            )

    def check_alive(self) -> None:
        if self.destroyed:
            raise UNetError(f"endpoint {self.name!r} has been destroyed")

    def destroy(self) -> None:
        """Mark the endpoint destroyed and wake whoever waits on its
        rings: the NI-side send service sees the flag and ends, and a
        blocked receiver's next ``recv_poll`` raises UNetError."""
        self.destroyed = True
        self.send_queue.wake_waiters()
        self.recv_queue.wake_waiters()

    # -- application-side operations -------------------------------------
    def post_send(self, descriptor: SendDescriptor, caller: str) -> bool:
        """Push a send descriptor; False signals back-pressure (§3.1)."""
        self.check_owner(caller)
        self.check_alive()
        channel = self.channels.get(descriptor.channel)
        if channel is None or not channel.open:
            raise ProtectionError(
                f"channel {descriptor.channel} is not registered on endpoint {self.name!r}"
            )
        for offset, length in descriptor.bufs:
            self.segment.check_range(offset, length)
        return self.send_queue.push(descriptor)

    def post_free(self, free: FreeDescriptor, caller: str) -> bool:
        """Hand a receive buffer to the NI via the free queue (§3.4)."""
        self.check_owner(caller)
        self.check_alive()
        self.segment.check_range(free.offset, free.length)
        return self.free_queue.push(free)

    def recv_poll(self, caller: str) -> Optional[RecvDescriptor]:
        """Poll the receive queue (the §3.1 polling model)."""
        self.check_owner(caller)
        self.check_alive()
        return self.recv_queue.pop()

    def recv_drain(self, caller: str):
        """Consume every pending message in one go (single-upcall rule)."""
        self.check_owner(caller)
        self.check_alive()
        return self.recv_queue.drain()

    def wait_recv(self, caller: str) -> Event:
        """Blocking wait for the receive queue to become non-empty
        (the select()-style model of §3.1)."""
        self.check_owner(caller)
        self.check_alive()
        return self.recv_queue.wait_nonempty()

    def wait_send_complete(self, descriptor: SendDescriptor) -> Event:
        """Event that fires once the NI marks the descriptor injected.

        The NI triggers the descriptor's completion event when it sets
        the injected flag (§3.1: "the associated send buffer can be
        reused").
        """
        if descriptor.completion is None:
            descriptor.completion = Event(self.sim)
        if descriptor.injected and not descriptor.completion.triggered:
            descriptor.completion.succeed()
        return descriptor.completion

    def on_send_complete(
        self, descriptor: SendDescriptor, fn: Callable, *args
    ) -> None:
        """Call ``fn(*args)`` once the NI marks ``descriptor`` injected,
        in the entry that fires its completion event: the point where
        the send buffers may be reused (§3.1)."""
        callbacks = self.wait_send_complete(descriptor).callbacks
        if callbacks is None:  # the completion has already fired
            fn(*args)
        else:
            callbacks.append(lambda _event: fn(*args))

    # -- upcall critical sections (§3.1) ----------------------------------
    def disable_upcalls(self, caller: str) -> None:
        self.check_owner(caller)
        self.upcalls_enabled = False

    def enable_upcalls(self, caller: str) -> None:
        self.check_owner(caller)
        self.upcalls_enabled = True
        waiters, self._enable_waiters = self._enable_waiters, []
        for event in waiters:
            event.succeed()

    def wait_upcalls_enabled(self) -> Event:
        event = Event(self.sim)
        if self.upcalls_enabled:
            event.succeed()
        else:
            self._enable_waiters.append(event)
        return event

    # -- NI side of the descriptor protocol --------------------------------
    def take_send(self):
        """Generator: wait for and pop the next send descriptor; returns
        None once the endpoint is destroyed."""
        ring = self.send_queue
        while not self.destroyed:
            yield ring.wait_nonempty()
            if self.destroyed:
                return None
            desc = ring.pop()
            if desc is not None:
                return desc
        return None

    def take_send_then(self, fn: Callable, *args) -> None:
        """Callback form of :meth:`take_send`: call ``fn(desc, *args)``
        with the next send descriptor, in the entry where a process in
        ``take_send`` would resume; never once the endpoint is
        destroyed."""
        if not self.destroyed:
            self.send_queue.wait_nonempty().callbacks.append(
                lambda _event: self._took_send(fn, args)
            )

    def _took_send(self, fn: Callable, args: tuple) -> None:
        if self.destroyed:
            return
        desc = self.send_queue.pop()
        if desc is None:
            self.take_send_then(fn, *args)
        else:
            fn(desc, *args)

    def gather(self, descriptor: Union[SendDescriptor, RecvDescriptor]) -> bytes:
        """A descriptor's message bytes: the inline payload, or its
        segment buffers read in order."""
        if descriptor.inline is not None:
            return descriptor.inline
        read = self.segment.read
        return b"".join([read(offset, length) for offset, length in descriptor.bufs])

    def complete_send(self, descriptor: SendDescriptor) -> None:
        """Mark ``descriptor`` injected and fire its completion event."""
        descriptor.injected = True
        completion = descriptor.completion
        if completion is not None and not completion.triggered:
            completion.succeed()
        self.messages_sent += 1

    def deliver_scattered(self, channel: int, payload: bytes) -> str:
        """Scatter ``payload`` into buffers popped off the free queue and
        queue its receive descriptor (§3.4).

        Returns DELIVERED, NO_BUFFER or RING_FULL.  On failure the whole
        message is dropped and every popped buffer goes back on the free
        queue.
        """
        free_queue = self.free_queue
        remaining = len(payload)
        cursor = 0
        used = []
        popped = []
        while remaining > 0:
            free = free_queue.pop()
            if free is None:
                self.no_buffer_drops += 1
                outcome = NO_BUFFER
                break
            popped.append(free)
            take = min(free.length, remaining)
            self.segment.write(free.offset, payload[cursor : cursor + take])
            used.append((free.offset, take))
            cursor += take
            remaining -= take
        else:
            desc = RecvDescriptor(
                channel=channel, length=len(payload), bufs=tuple(used)
            )
            if self.deliver(desc):
                return DELIVERED
            outcome = RING_FULL
        for fd in popped:
            free_queue.push(fd)
        return outcome

    def deliver(self, descriptor: RecvDescriptor) -> bool:
        """Used by the NI/mux to push a received message descriptor."""
        self.check_alive()
        ok = self.recv_queue.push(descriptor)
        if ok:
            self.messages_received += 1
        else:
            self.receive_drops += 1
        return ok

    def __repr__(self) -> str:
        kind = "emulated" if self.emulated else "regular"
        return f"<Endpoint {self.name} ({kind}) owner={self.owner}>"
