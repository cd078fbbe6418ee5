"""The UAM library: reliable request/reply and bulk transfer (§5.1).

Every ``UAM`` instance wraps one :class:`~repro.core.api.UNetSession`
and exposes:

* ``register_handler(index, fn)`` -- install a handler; handlers are
  generators ``fn(uam, channel_id, msg)`` and may call
  ``yield from uam.reply(...)`` when handling a *request*.
* ``request(channel, handler, payload)`` -- send a request (<= 36 bytes
  rides in a single cell).
* ``store(channel, data, remote_addr, handler)`` -- reliable bulk store
  into the peer's exposed memory, fragmented into 4160-byte buffers.
* ``get(channel, remote_addr, local_addr, length, handler)`` -- fetch
  remote memory.
* ``poll()`` / ``poll_wait()`` -- the explicit-polling receive model
  the paper's UAM uses (§5.1.2).

Reliability is a fixed-window, go-back-N scheme with cumulative
acknowledgments piggybacked on every message and explicit ACKs for
one-way traffic, exactly as §5.1.1 describes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.am import wire
from repro.am.wire import (
    MSG_ACK,
    MSG_GET,
    MSG_REPLY,
    MSG_REQUEST,
    MSG_XFER,
    MSG_XFER_REPLY,
    SMALL_PAYLOAD_MAX,
    XFER_CHUNK,
    Message,
)
from repro import obs
from repro.core import SendDescriptor, UNetSession
from repro.core.errors import UNetError
from repro.sim import AnyOf


class UamError(UNetError):
    """Misuse of the Active Messages layer (bad handler, reply rules...)."""


@dataclass
class UamConfig:
    """Tunables of the UAM layer, defaults per §5.1."""

    #: Fixed flow-control window w; 4w buffers are preallocated.
    window: int = 8
    #: Transmit/receive buffer size: 4160 data bytes (§5.2).
    buffer_size: int = wire.XFER_BUFFER
    #: Retransmission timeout. The 1995 library used ~1 ms user timers.
    rto_us: float = 1000.0
    #: Library overhead on each send operation.
    send_overhead_us: float = 1.3
    #: Handler dispatch overhead per received message.
    dispatch_overhead_us: float = 1.2
    #: Size of the memory region exposed to bulk store/get.
    memory_size: int = 1 << 20


class _Peer:
    """Per-channel reliability state."""

    def __init__(self, channel_id: int, window: int):
        self.channel_id = channel_id
        self.window = window
        self.next_seq = 0
        self.expected = 0
        self.ack_owed = False
        self.ack_urgent = False
        self.rx_since_ack = 0
        # go-back-N retransmission store: (seq, type, handler, payload,
        # base, offset, total)
        self.unacked: Deque[Tuple] = deque()
        self.tx_slots: List[int] = []  # w preallocated buffer offsets

    @property
    def window_free(self) -> bool:
        return len(self.unacked) < self.window

    @property
    def last_ack(self) -> int:
        return (self.expected - 1) & 0xFF


class UAM:
    """U-Net Active Messages over one endpoint session."""

    def __init__(self, session: UNetSession, config: Optional[UamConfig] = None):
        self.session = session
        self.cfg = config if config is not None else UamConfig()
        if self.cfg.window >= 128:
            raise UamError("window must be < 128 (8-bit sequence space)")
        self.host = session.host
        self.sim = session.host.sim
        self.handlers: Dict[int, Callable] = {}
        #: Memory region remote peers can store into / get from.
        self.memory = bytearray(self.cfg.memory_size)
        self._peers: Dict[int, _Peer] = {}
        self._outbox: Deque[Tuple] = deque()
        self._in_handler: Optional[Message] = None
        self._xfers_in: Dict[Tuple[int, int, int], int] = {}
        # statistics (§7.4: all protocol state is visible to the app)
        self.retransmissions = 0
        self.acks_sent = 0
        self.duplicates = 0
        self.out_of_order_drops = 0
        self.requests_sent = 0
        self.replies_sent = 0
        self.xfer_bytes_in = 0
        self.memory_range_errors = 0
        # Per-endpoint metric keys, precomputed off the hot path.
        self._k_tx = f"am.{self.host.name}.tx"
        self._k_rx = f"am.{self.host.name}.rx"

    # -- set-up ----------------------------------------------------------------
    def register_handler(self, index: int, fn: Callable) -> None:
        if not 0 <= index <= 255:
            raise UamError("handler index must fit one byte")
        self.handlers[index] = fn

    def open_channel(self, channel_id: int):
        """Preallocate 4w buffers for a channel (§5.1.1): w transmit
        slots in the segment plus 2w receive buffers on the free queue
        (the remaining w worth of reply slots share the transmit pool
        since replies are windowed with requests here)."""
        if channel_id in self._peers:
            raise UamError(f"channel {channel_id} already open")
        peer = _Peer(channel_id, self.cfg.window)
        for _ in range(self.cfg.window):
            peer.tx_slots.append(self.session.alloc(self.cfg.buffer_size))
        yield from self.session.provide_receive_buffers(
            2 * self.cfg.window, size=self.cfg.buffer_size
        )
        self._peers[channel_id] = peer

    # -- sending (application context) ---------------------------------------
    def request(self, channel_id: int, handler: int, payload: bytes = b""):
        """Send a request Active Message (up to 36 bytes single-cell)."""
        if self._in_handler is not None:
            raise UamError("use reply() inside handlers, not request()")
        if len(payload) > SMALL_PAYLOAD_MAX:
            raise UamError(
                f"request payload limited to {SMALL_PAYLOAD_MAX} bytes; "
                "use store()/get() for bulk data"
            )
        peer = self._peer(channel_id)
        yield from self._wait_window(peer)
        yield from self._emit(peer, MSG_REQUEST, handler, payload)
        self.requests_sent += 1

    def reply(self, handler: int, payload: bytes = b""):
        """Send the reply to the request currently being handled.

        Only legal inside a *request* handler; reply handlers may not
        reply again (live-lock prevention, §5)."""
        msg = self._in_handler
        if msg is None:
            raise UamError("reply() is only legal inside a handler")
        if msg.type not in (MSG_REQUEST,):
            raise UamError("a reply handler cannot send another reply (§5)")
        if len(payload) > SMALL_PAYLOAD_MAX:
            raise UamError("reply payload limited to one cell; use store()")
        self._outbox.append(
            (self._handling_channel, MSG_REPLY, handler, payload, 0, 0, 0)
        )
        self.replies_sent += 1
        return
        yield  # pragma: no cover - generator form for API uniformity

    def store(self, channel_id: int, data: bytes, remote_addr: int, handler: int = 0):
        """Reliable bulk store into the peer's memory (GAM am_store)."""
        if self._in_handler is not None:
            raise UamError("store() may not be called from a handler")
        peer = self._peer(channel_id)
        total = len(data)
        offsets = range(0, total, XFER_CHUNK) if total else [0]
        for off in offsets:
            chunk = data[off : off + XFER_CHUNK]
            yield from self._wait_window(peer)
            yield from self._emit(
                peer, MSG_XFER, handler, chunk,
                base=remote_addr, offset=off, total=total,
            )

    def get(
        self, channel_id: int, remote_addr: int, local_addr: int,
        length: int, handler: int = 0,
    ):
        """Fetch peer memory into local memory (GAM am_get).  The
        completion handler runs locally once all data has arrived."""
        if self._in_handler is not None:
            raise UamError("get() may not be called from a handler")
        peer = self._peer(channel_id)
        yield from self._wait_window(peer)
        yield from self._emit(
            peer, MSG_GET, handler, b"",
            base=remote_addr, offset=local_addr, total=length,
        )

    # -- receiving -----------------------------------------------------------------
    def poll(self):
        """Drain the receive queue, dispatch handlers, send what the
        handlers produced, and acknowledge (§5.1.2).  Returns True if
        any message was processed."""
        progressed = False
        while True:
            desc = self.session.recv_poll()
            if desc is None:
                break
            progressed = True
            yield from self.host.compute(self.session.host_recv_cost_us)
            raw = self.session.peek_payload(desc)
            yield from self.session.repost_free(desc)
            try:
                msg = wire.decode(raw)
            except ValueError:
                continue
            if desc.channel not in self._peers:
                continue
            yield from self._handle(desc.channel, msg)
        sent = yield from self._drain_outbox()
        progressed = progressed or sent
        # Explicit acks are sent lazily: the next outgoing data message
        # usually piggybacks the ack, so only half-window batches force
        # an explicit one (keeps the send window from stalling).
        for peer in self._peers.values():
            if peer.ack_owed and (
                peer.ack_urgent
                or peer.rx_since_ack >= max(1, peer.window // 2)
            ):
                yield from self._send_ack(peer)
        return progressed

    def poll_wait(self, timeout_us: Optional[float] = None):
        """Poll; if nothing is pending, block until a message arrives or
        the retransmission timeout fires (then go-back-N retransmit)."""
        timeout_us = timeout_us if timeout_us is not None else self.cfg.rto_us
        progressed = yield from self.poll()
        if progressed:
            return True
        wait = self.session.endpoint.wait_recv(self.session.caller)
        timer = self.sim.timeout(timeout_us)
        yield AnyOf(self.sim, [wait, timer])
        if not wait.triggered:
            # Idle timeout: flush any acks we still owe (so the peer's
            # window can clear without retransmission), then go-back-N.
            for peer in self._peers.values():
                if peer.ack_owed:
                    yield from self._send_ack(peer)
            yield from self._retransmit_all()
            return False
        return (yield from self.poll())

    # -- internals: reliability ------------------------------------------------------
    def _peer(self, channel_id: int) -> _Peer:
        try:
            return self._peers[channel_id]
        except KeyError:
            raise UamError(f"channel {channel_id} is not open for UAM") from None

    def _wait_window(self, peer: _Peer):
        """Paper §5.1.2: 'If the send window is full, the sender polls
        for incoming messages until there is space in the send window or
        until a time-out occurs and all unacknowledged messages are
        retransmitted.'"""
        deadline = self.sim.now + self.cfg.rto_us
        while not peer.window_free:
            progressed = yield from self.poll()
            if progressed:
                deadline = self.sim.now + self.cfg.rto_us
                continue
            wait = self.session.endpoint.wait_recv(self.session.caller)
            timer = self.sim.timeout(max(0.0, deadline - self.sim.now))
            yield AnyOf(self.sim, [wait, timer])
            if not wait.triggered:
                yield from self._retransmit_all()
                deadline = self.sim.now + self.cfg.rto_us

    def _emit(
        self, peer: _Peer, msg_type: int, handler: int, payload: bytes,
        base: int = 0, offset: int = 0, total: int = 0,
    ):
        seq = peer.next_seq
        peer.next_seq = (seq + 1) & 0xFF
        peer.unacked.append((seq, msg_type, handler, payload, base, offset, total))
        yield from self._transmit(peer, seq, msg_type, handler, payload, base, offset, total)

    def _transmit(
        self, peer: _Peer, seq: int, msg_type: int, handler: int,
        payload: bytes, base: int, offset: int, total: int,
    ):
        raw = wire.encode(
            msg_type, seq, peer.last_ack, handler, payload, base, offset, total
        )
        # Every outgoing message piggybacks the cumulative ack (§5.1.1).
        peer.ack_owed = False
        peer.ack_urgent = False
        peer.rx_since_ack = 0
        _o = obs.active
        _sp = None
        if _o is not None:
            _sp = _o.begin(self.sim.now, "uam_tx", "uam", host=self.host.name)
            _o.count(self._k_tx)
        yield from self.host.compute(self.cfg.send_overhead_us)
        if len(raw) <= 40:
            desc = SendDescriptor(channel=peer.channel_id, inline=raw)
        else:
            slot = peer.tx_slots[seq % peer.window]
            yield from self.session.write_segment(slot, raw)
            desc = SendDescriptor(channel=peer.channel_id, bufs=((slot, len(raw)),))
        yield from self.session.send(desc)
        if _sp is not None:
            _o.annotate(_sp, seq=seq, type=msg_type, bytes=len(raw))
            _o.end(_sp, self.sim.now)

    def _send_ack(self, peer: _Peer):
        raw = wire.encode(MSG_ACK, 0, peer.last_ack, 0)
        peer.ack_owed = False
        peer.ack_urgent = False
        peer.rx_since_ack = 0
        self.acks_sent += 1
        _o = obs.active
        _sp = (
            _o.begin(self.sim.now, "uam_ack", "uam", host=self.host.name)
            if _o is not None
            else None
        )
        yield from self.host.compute(self.cfg.send_overhead_us)
        yield from self.session.send(
            SendDescriptor(channel=peer.channel_id, inline=raw)
        )
        if _sp is not None:
            _o.end(_sp, self.sim.now)

    def _process_ack(self, peer: _Peer, ack: int) -> None:
        while peer.unacked and ((ack - peer.unacked[0][0]) & 0xFF) < 128:
            peer.unacked.popleft()

    def _retransmit_all(self):
        """Go-back-N: resend every unacknowledged message, in order."""
        for peer in self._peers.values():
            for (seq, msg_type, handler, payload, base, offset, total) in list(
                peer.unacked
            ):
                self.retransmissions += 1
                yield from self._transmit(
                    peer, seq, msg_type, handler, payload, base, offset, total
                )

    # -- internals: dispatch --------------------------------------------------------
    def _handle(self, channel_id: int, msg: Message):
        peer = self._peers[channel_id]
        self._process_ack(peer, msg.ack)
        if msg.type == MSG_ACK:
            return
        if msg.seq != peer.expected:
            if ((peer.expected - msg.seq - 1) & 0xFF) < 128:
                self.duplicates += 1
                # Re-acknowledge immediately so the peer stops resending.
                peer.ack_owed = True
                peer.ack_urgent = True
            else:
                self.out_of_order_drops += 1  # gap: go-back-N will resend
            return
        peer.expected = (peer.expected + 1) & 0xFF
        peer.ack_owed = True
        peer.rx_since_ack += 1
        if msg.type in (MSG_XFER, MSG_XFER_REPLY):
            # Bulk chunks are large (long wire times): acknowledge at the
            # end of the poll batch so the sender's window never stalls
            # into its retransmission timeout.
            peer.ack_urgent = True
        _o = obs.active
        _sp = None
        if _o is not None:
            _sp = _o.begin(self.sim.now, "uam_dispatch", "uam", host=self.host.name)
            _o.count(self._k_rx)
        try:
            yield from self.host.compute(self.cfg.dispatch_overhead_us)
            if msg.type in (MSG_REQUEST, MSG_REPLY):
                yield from self._dispatch(channel_id, msg)
            elif msg.type in (MSG_XFER, MSG_XFER_REPLY):
                yield from self._handle_xfer(channel_id, msg)
            elif msg.type == MSG_GET:
                self._handle_get(channel_id, msg)
        finally:
            if _sp is not None:
                _o.annotate(_sp, seq=msg.seq, type=msg.type)
                _o.end(_sp, self.sim.now)

    def _dispatch(self, channel_id: int, msg: Message):
        fn = self.handlers.get(msg.handler)
        if fn is None:
            raise UamError(f"no handler registered at index {msg.handler}")
        self._in_handler = msg
        self._handling_channel = channel_id
        try:
            yield from fn(self, channel_id, msg)
        finally:
            self._in_handler = None

    def _handle_xfer(self, channel_id: int, msg: Message):
        if msg.base + msg.total > len(self.memory):
            self.memory_range_errors += 1
            return
        # Copy from the receive buffer into the destination data
        # structure -- the second copy of §5.2's per-byte cost.
        yield from self.host.copy(len(msg.payload))
        self.memory[msg.base + msg.offset : msg.base + msg.offset + len(msg.payload)] = (
            msg.payload
        )
        self.xfer_bytes_in += len(msg.payload)
        key = (channel_id, msg.base, msg.total)
        got = self._xfers_in.get(key, 0) + len(msg.payload)
        if got < msg.total:
            self._xfers_in[key] = got
            return
        self._xfers_in.pop(key, None)
        fn = self.handlers.get(msg.handler)
        if fn is not None:
            self._in_handler = msg
            self._handling_channel = channel_id
            try:
                yield from fn(self, channel_id, msg)
            finally:
                self._in_handler = None

    def _handle_get(self, channel_id: int, msg: Message) -> None:
        """Queue the requested data as reply-class bulk chunks."""
        remote_addr, local_addr, length = msg.base, msg.offset, msg.total
        if remote_addr + length > len(self.memory):
            self.memory_range_errors += 1
            return
        offsets = range(0, length, XFER_CHUNK) if length else [0]
        for off in offsets:
            chunk = bytes(self.memory[remote_addr + off : remote_addr + off + min(XFER_CHUNK, length - off)])
            self._outbox.append(
                (channel_id, MSG_XFER_REPLY, msg.handler, chunk,
                 local_addr, off, length)
            )

    def _drain_outbox(self):
        """Send handler-produced messages (replies, get data) as window
        space allows; the rest waits for the next poll."""
        sent = False
        while self._outbox:
            channel_id, msg_type, handler, payload, base, offset, total = (
                self._outbox[0]
            )
            peer = self._peers[channel_id]
            if not peer.window_free:
                break
            self._outbox.popleft()
            yield from self._emit(
                peer, msg_type, handler, payload, base, offset, total
            )
            sent = True
        return sent
