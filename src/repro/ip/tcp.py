"""One TCP engine, two execution environments (§7.2, §7.7, §7.8).

The engine implements the protocol: three-way handshake, cumulative
acknowledgments, sliding windows with receiver-advertised flow control,
slow start / congestion avoidance, RTT estimation, and go-back-N
retransmission from ``snd_una``.

What differs between U-Net TCP and kernel TCP is the *environment*
(`TcpEnv` duck type): per-segment processing costs, the protocol timer
granularity (1 ms user timer vs. the BSD 500 ms ``pr_slow_timeout``),
the delayed-ack policy, and how segments reach the wire.  The paper's
§7.8 tuning discussion maps one-to-one onto :class:`TcpConfig` fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, List, Optional

from collections import deque

from repro import obs
from repro.ip.headers import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    FLAG_SYN,
    TcpSegment,
)
from repro.sim import Event


@dataclass
class TcpConfig:
    """Protocol tunables (§7.8)."""

    #: Segment size: "The standard configuration for U-Net TCP uses
    #: 2048 byte segments" -- large segments risk whole-segment loss
    #: from single dropped cells (Romanow & Floyd).
    mss: int = 2048
    #: Receive buffer = advertised window.  U-Net TCP reaches full
    #: bandwidth with 8 KB; kernel TCP needs 64 KB and still falls short.
    window: int = 8192
    #: Send buffer bound (defaults to the window).
    sndbuf: Optional[int] = None
    #: Protocol timer granularity: 1 ms for U-Net TCP, 500 ms for the
    #: BSD kernel's pr_slow_timeout (§7.8).
    timer_granularity_us: float = 1000.0
    #: Delayed acknowledgments (up to 200 ms, every second packet).
    #: "In U-Net TCP it was possible to disable the delay mechanism."
    delayed_ack: bool = False
    delayed_ack_us: float = 200_000.0
    #: Initial slow-start threshold.
    initial_ssthresh: int = 64 * 1024
    #: Initial congestion window in segments.
    initial_cwnd_segments: int = 2

    @property
    def sndbuf_limit(self) -> int:
        return self.sndbuf if self.sndbuf is not None else self.window


class TcpConnection:
    """One endpoint of a TCP connection, driven by an environment.

    The environment must provide:

    * ``sim`` -- the simulator,
    * ``output_segment(seg: TcpSegment)`` -- generator: encapsulate in
      IP, charge the environment's costs, put it on the wire,
    * ``segment_cost_us(n_payload_bytes)`` -- generator charging the
      receive-side protocol processing for a segment.

    The environment calls ``handle(seg)`` (a generator) for every
    arriving segment.
    """

    def __init__(
        self,
        env,
        config: TcpConfig,
        src_port: int,
        dst_port: int,
        name: str = "tcp",
    ):
        self.env = env
        self.sim = env.sim
        self.cfg = config
        self.src_port = src_port
        self.dst_port = dst_port
        self.name = name
        # Built once: _timer_cb names the expiry process on the hot path.
        self._tmr_name = f"{name}.tmr"
        self.state = "CLOSED"
        # send side
        self.iss = 1000
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_wnd = config.window  # peer-advertised
        self.cwnd = config.mss * config.initial_cwnd_segments
        self.ssthresh = config.initial_ssthresh
        self._retx = bytearray()  # unacked bytes, base seq = snd_una
        self._sndq: Deque[bytes] = deque()
        self._sndq_bytes = 0
        self._fin_queued = False
        self._fin_sent = False
        # receive side
        self.rcv_nxt = 0
        self._rcvq: Deque[bytes] = deque()
        self._rcvq_bytes = 0
        self._fin_rcvd = False
        self._advertised = config.window
        #: right edge (ack + win) the peer last saw in an ACK we sent
        self._adv_right_edge = 0
        # RTT estimation (coarse ticks, like BSD)
        self.srtt_us: Optional[float] = None
        self.rttvar_us = 0.0
        self._rtt_seq: Optional[int] = None
        self._rtt_start = 0.0
        self._retx_deadline: Optional[float] = None
        self._delack_deadline: Optional[float] = None
        self._delack_count = 0
        self._dup_acks = 0
        #: fire time of the armed protocol timer (None = disarmed), and
        #: the arm count that tells its live callback from stale ones
        self._timer_when: Optional[float] = None
        self._timer_arm = 0
        self._timer_firing = False
        # events
        self._established = Event(self.sim)
        self._rcv_waiters: List[Event] = []
        self._snd_waiters: List[Event] = []
        self._tx_wakeups: List[Event] = []
        # statistics (§7.4: visible to the application)
        self.segments_sent = 0
        self.segments_received = 0
        self.retransmits = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.acks_sent = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.dropped_out_of_order = 0
        self._alive = True
        self.sim.process(self._sender_proc(), name=f"{name}.snd")
        # The protocol timer is armed lazily by _wake_timer: an idle
        # connection costs no heap entries at all.

    # ------------------------------------------------------------------ API
    def connect(self):
        """Active open: send SYN, wait for the handshake to complete."""
        if self.state != "CLOSED":
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = "SYN_SENT"
        yield from self._emit(FLAG_SYN, seq=self.snd_nxt)
        self.snd_nxt += 1  # SYN consumes a sequence number
        self._retx_deadline = self.sim.now + self._rto()
        self._wake_timer()
        yield self._established
        return self

    def listen(self):
        """Passive open."""
        if self.state != "CLOSED":
            raise RuntimeError(f"listen() in state {self.state}")
        self.state = "LISTEN"

    def wait_established(self):
        yield self._established
        return self

    def send(self, data: bytes):
        """Queue application data, blocking on send-buffer space."""
        if self.state not in ("ESTABLISHED", "SYN_SENT", "SYN_RCVD"):
            raise RuntimeError(f"send() in state {self.state}")
        view = memoryview(data)
        while len(view):
            while self._sndq_bytes >= self.cfg.sndbuf_limit:
                event = Event(self.sim)
                self._snd_waiters.append(event)
                yield event
            room = self.cfg.sndbuf_limit - self._sndq_bytes
            chunk = bytes(view[:room])
            view = view[len(chunk):]
            self._sndq.append(chunk)
            self._sndq_bytes += len(chunk)
            self._wake_tx()

    def recv(self, max_bytes: int = 1 << 30):
        """Receive application data; returns b"" at EOF."""
        while not self._rcvq and not self._fin_rcvd:
            event = Event(self.sim)
            self._rcv_waiters.append(event)
            yield event
        if not self._rcvq and self._fin_rcvd:
            return b""
        parts: List[bytes] = []
        taken = 0
        while self._rcvq and taken < max_bytes:
            chunk = self._rcvq[0]
            if taken + len(chunk) <= max_bytes:
                parts.append(self._rcvq.popleft())
                taken += len(chunk)
            else:
                keep = max_bytes - taken
                parts.append(chunk[:keep])
                self._rcvq[0] = chunk[keep:]
                taken = max_bytes
        self._rcvq_bytes -= taken
        # §7.4: the advertised window directly reflects application
        # buffer space; opening it by an MSS (or half the buffer, for
        # buffers smaller than one segment) triggers an update.
        new_right_edge = self.rcv_nxt + (self.cfg.window - self._rcvq_bytes)
        threshold = min(2 * self.cfg.mss, max(1, self.cfg.window // 2))
        if new_right_edge - self._adv_right_edge >= threshold:
            yield from self._send_ack(force=True)
        return b"".join(parts)

    def close(self):
        """Queue a FIN after any pending data."""
        if self.state in ("CLOSED", "LISTEN"):
            self.state = "CLOSED"
            self._alive = False
            self._kill_timer()
            return
        self._fin_queued = True
        self._wake_tx()

    @property
    def rto_us(self) -> float:
        return self._rto()

    # --------------------------------------------------------------- sending
    def _flight(self) -> int:
        return self.snd_nxt - self.snd_una

    def _send_window(self) -> int:
        return min(self.snd_wnd, self.cwnd)

    def _wake_tx(self) -> None:
        waiters, self._tx_wakeups = self._tx_wakeups, []
        for event in waiters:
            event.succeed()

    _fast_retransmit_pending = False

    def _sender_proc(self):
        while self._alive:
            moved = False
            if self._fast_retransmit_pending:
                self._fast_retransmit_pending = False
                if len(self._retx):
                    # BSD fast retransmit: resend snd_una's segment and
                    # back off without waiting for the coarse timer
                    self.ssthresh = max(2 * self.cfg.mss, self._flight() // 2)
                    self.cwnd = self.cfg.mss
                    self.fast_retransmits += 1
                    self.retransmits += 1
                    _o = obs.active
                    if _o is not None:
                        _o.count("tcp.retransmits")
                    payload = bytes(self._retx[: self.cfg.mss])
                    yield from self._emit(FLAG_ACK, seq=self.snd_una, payload=payload)
                    self._retx_deadline = self.sim.now + self._rto()
                    self._wake_timer()
                    moved = True
            while (
                self.state == "ESTABLISHED"
                and self._sndq
                and self._flight() < self._send_window()
            ):
                budget = min(
                    self.cfg.mss, self._send_window() - self._flight()
                )
                payload = self._take_from_sndq(budget)
                if not payload:
                    break
                self._retx.extend(payload)
                seq = self.snd_nxt
                self.snd_nxt += len(payload)
                if self._rtt_seq is None:
                    self._rtt_seq = seq + len(payload)
                    self._rtt_start = self.sim.now
                yield from self._emit(FLAG_ACK, seq=seq, payload=payload)
                self.bytes_sent += len(payload)
                if self._retx_deadline is None:
                    self._retx_deadline = self.sim.now + self._rto()
                    self._wake_timer()
                moved = True
            if (
                self._fin_queued
                and not self._fin_sent
                and not self._sndq
                and self.state == "ESTABLISHED"
            ):
                self._fin_sent = True
                yield from self._emit(FLAG_FIN | FLAG_ACK, seq=self.snd_nxt)
                self.snd_nxt += 1
                self.state = "FIN_WAIT"
                if self._retx_deadline is None:
                    self._retx_deadline = self.sim.now + self._rto()
                    self._wake_timer()
            if not moved:
                event = Event(self.sim)
                self._tx_wakeups.append(event)
                yield event

    def _take_from_sndq(self, budget: int) -> bytes:
        parts: List[bytes] = []
        taken = 0
        while self._sndq and taken < budget:
            chunk = self._sndq[0]
            if taken + len(chunk) <= budget:
                parts.append(self._sndq.popleft())
                taken += len(chunk)
            else:
                keep = budget - taken
                parts.append(chunk[:keep])
                self._sndq[0] = chunk[keep:]
                taken = budget
        self._sndq_bytes -= taken
        if parts:
            waiters, self._snd_waiters = self._snd_waiters, []
            for event in waiters:
                event.succeed()
        return b"".join(parts)

    def _emit(self, flags: int, seq: int, payload: bytes = b""):
        self._advertised = self.cfg.window - self._rcvq_bytes
        seg = TcpSegment(
            src_port=self.src_port,
            dst_port=self.dst_port,
            seq=seq,
            ack=self.rcv_nxt if flags & FLAG_ACK else 0,
            flags=flags,
            # the wire field is 16 bits (no window-scaling option here)
            window=max(0, min(0xFFFF, self._advertised)),
            payload=payload,
        )
        self.segments_sent += 1
        _o = obs.active
        if _o is not None:
            _o.count("tcp.segments_sent")
            if payload:
                _o.count("tcp.bytes_sent", len(payload))
        if flags & FLAG_ACK:
            self._delack_count = 0
            self._delack_deadline = None
            self._adv_right_edge = self.rcv_nxt + seg.window
        yield from self.env.output_segment(seg)

    def _send_ack(self, force: bool = False):
        if self.cfg.delayed_ack and not force:
            # BSD: delay the ack of every second packet up to 200 ms.
            self._delack_count += 1
            if self._delack_count < 2:
                if self._delack_deadline is None:
                    self._delack_deadline = self.sim.now + self.cfg.delayed_ack_us
                    self._wake_timer()
                _o = obs.active
                if _o is not None:
                    _o.count("tcp.delayed_acks")
                return
        self.acks_sent += 1
        yield from self._emit(FLAG_ACK, seq=self.snd_nxt)

    # --------------------------------------------------------------- receive
    def handle(self, seg: TcpSegment):
        """Process an arriving segment (called by the environment)."""
        self.segments_received += 1
        _o = obs.active
        if _o is not None:
            _o.count("tcp.segments_received")
            _o.sample(
                self.sim.now, f"{self.name}.cwnd", self.cwnd, host=self.name
            )
        yield from self.env.segment_cost_us(len(seg.payload))
        if seg.flag(FLAG_RST):
            self.state = "CLOSED"
            self._alive = False
            self._kill_timer()
            self._signal_receivers()
            return
        if self.state == "LISTEN" and seg.flag(FLAG_SYN):
            self.rcv_nxt = seg.seq + 1
            self.state = "SYN_RCVD"
            yield from self._emit(FLAG_SYN | FLAG_ACK, seq=self.snd_nxt)
            self.snd_nxt += 1
            self._retx_deadline = self.sim.now + self._rto()
            self._wake_timer()
            return
        if self.state == "SYN_SENT" and seg.flag(FLAG_SYN) and seg.flag(FLAG_ACK):
            self.rcv_nxt = seg.seq + 1
            self.snd_una = seg.ack
            self.snd_wnd = seg.window
            self.state = "ESTABLISHED"
            self._retx_deadline = None
            self._wake_timer()
            yield from self._send_ack(force=True)
            if not self._established.triggered:
                self._established.succeed()
            self._wake_tx()
            return
        if self.state == "SYN_RCVD" and seg.flag(FLAG_ACK) and seg.ack == self.snd_nxt:
            self.state = "ESTABLISHED"
            self.snd_una = seg.ack
            self.snd_wnd = seg.window
            self._retx_deadline = None
            self._wake_timer()
            if not self._established.triggered:
                self._established.succeed()
            self._wake_tx()
            if not seg.payload:
                return
        if self.state not in ("ESTABLISHED", "FIN_WAIT", "CLOSE_WAIT"):
            return
        # ---- ACK processing
        if seg.flag(FLAG_ACK):
            self._process_ack(seg)
        # ---- data
        if seg.payload:
            yield from self._process_data(seg)
        if seg.flag(FLAG_FIN) and seg.seq + len(seg.payload) == self.rcv_nxt:
            self.rcv_nxt += 1
            self._fin_rcvd = True
            if self.state == "FIN_WAIT":
                self.state = "CLOSED"
                self._alive = False
                self._kill_timer()
            else:
                self.state = "CLOSE_WAIT"
            self._signal_receivers()
            yield from self._send_ack(force=True)

    def _process_ack(self, seg: TcpSegment) -> None:
        self.snd_wnd = seg.window
        acked = seg.ack - self.snd_una
        if acked <= 0:
            if (
                acked == 0
                and self._flight() > 0
                and not seg.payload
                and not seg.flag(FLAG_SYN)
            ):
                # duplicate ack: the receiver is missing a segment
                self._dup_acks += 1
                if self._dup_acks == 3:
                    self._fast_retransmit_pending = True
                    self._wake_tx()
            self._wake_tx()  # window update may unblock the sender
            return
        self._dup_acks = 0
        data_acked = min(acked, len(self._retx))
        del self._retx[:data_acked]
        self.snd_una = seg.ack
        # RTT sample (Karn's rule: only if not retransmitted; we clear
        # the sample on retransmission)
        if self._rtt_seq is not None and seg.ack >= self._rtt_seq:
            self._update_rtt(self.sim.now - self._rtt_start)
            self._rtt_seq = None
        # congestion window growth
        if self.cwnd < self.ssthresh:
            self.cwnd += self.cfg.mss  # slow start
        else:
            self.cwnd += max(1, self.cfg.mss * self.cfg.mss // self.cwnd)
        acked_hook = getattr(self.env, "on_acked", None)
        if acked_hook is not None:
            acked_hook(self.snd_una)
        if self.snd_una == self.snd_nxt:
            self._retx_deadline = None
            if self.state == "FIN_WAIT" and self._fin_sent:
                self.state = "CLOSED"
                self._alive = False
            # everything acked: cancel (or retarget to a pending delack)
            self._wake_timer()
        else:
            self._retx_deadline = self.sim.now + self._rto()
            self._wake_timer()
        self._wake_tx()

    def _process_data(self, seg: TcpSegment):
        if seg.seq != self.rcv_nxt:
            # out of order (loss upstream): drop; cumulative ack will
            # trigger go-back-N at the sender
            self.dropped_out_of_order += 1
            yield from self._send_ack(force=True)  # duplicate ack
            return
        room = self.cfg.window - self._rcvq_bytes
        accept = seg.payload[:room]
        if not accept:
            yield from self._send_ack(force=True)
            return
        self.rcv_nxt += len(accept)
        self._rcvq.append(bytes(accept))
        self._rcvq_bytes += len(accept)
        self.bytes_received += len(accept)
        self._signal_receivers()
        yield from self._send_ack()

    def _signal_receivers(self) -> None:
        waiters, self._rcv_waiters = self._rcv_waiters, []
        for event in waiters:
            event.succeed()

    # ---------------------------------------------------------------- timers
    def _rto(self) -> float:
        g = self.cfg.timer_granularity_us
        if self.srtt_us is None:
            base = 2 * g
        else:
            base = self.srtt_us + max(4 * self.rttvar_us, g)
        # BSD rounds the retransmission timer up to timer ticks: with a
        # 500 ms pr_slow_timeout the rto dwarfs LAN round-trip times
        # (§7.8); U-Net's 1 ms granularity keeps it proportionate.
        ticks = max(2.0, -(-base // g))
        return ticks * g

    def _update_rtt(self, sample_us: float) -> None:
        if self.srtt_us is None:
            self.srtt_us = sample_us
            self.rttvar_us = sample_us / 2
        else:
            err = sample_us - self.srtt_us
            self.srtt_us += err / 8
            self.rttvar_us += (abs(err) - self.rttvar_us) / 4

    def _kill_timer(self) -> None:
        """Disarm the timer, if any: its entry stays scheduled and its
        callback returns at once."""
        self._timer_when = None

    def _wake_timer(self) -> None:
        """(Re-)arm the protocol timer for the earliest pending deadline.

        The timer fires on the next granularity boundary at or after the
        deadline, preserving the coarse-tick character of the BSD
        ``pr_slow_timeout`` (§7.8) without a free-running tick chain: an
        idle connection arms no new entry, and clearing the last
        deadline disarms the armed one instead of letting a stale tick
        run an expiry later.  A timer armed *earlier* than the
        current requirement is left in place — its callback finds no
        expired deadline and lazily re-arms, so ACKs that repeatedly
        push the retransmit deadline out cost no cancel/push churn."""
        if not self._alive:
            self._kill_timer()
            return
        if self._timer_firing:
            return  # _timer_fire re-arms once the handlers finish
        rd = self._retx_deadline
        dd = self._delack_deadline
        if rd is None:
            deadline = dd
        elif dd is None or rd < dd:
            deadline = rd
        else:
            deadline = dd
        if deadline is None:
            self._timer_when = None
            return
        g = self.cfg.timer_granularity_us
        now = self.sim.now
        ticks = max(1.0, -(-(deadline - now) // g))
        delay = ticks * g
        when = self._timer_when
        if when is not None and when <= now + delay:
            return  # already fires early enough; it will re-arm
        # The arm count, not the fire time, is the token: a disarmed
        # entry and its replacement can share one fire time.
        self._timer_arm += 1
        self._timer_when = now + delay
        self.sim.schedule_callback(delay, self._timer_cb, self._timer_arm)

    def _timer_cb(self, arm: int) -> None:
        """A timer entry fired (a bare callback, no process).

        An entry disarmed or superseded since it was armed returns at
        once.  Deadline checks are free; a generator process is spawned
        only when a deadline actually expired, since the expiry handlers
        consume simulated time."""
        if arm != self._timer_arm or self._timer_when is None:
            return
        self._timer_when = None
        if not self._alive:
            return
        now = self.sim.now
        fire_delack = self._delack_deadline is not None and now >= self._delack_deadline
        fire_retx = self._retx_deadline is not None and now >= self._retx_deadline
        if fire_delack or fire_retx:
            self._timer_firing = True
            self.sim.process(
                self._timer_fire(now, fire_delack), name=self._tmr_name
            )
        else:
            # a deadline moved later since arming: lazy re-arm
            self._wake_timer()

    def _timer_fire(self, tick_now: float, fire_delack: bool):
        try:
            if fire_delack:
                self._delack_deadline = None
                yield from self._send_ack(force=True)
            # Re-read the retransmit deadline: the delayed-ack handler
            # yields, and incoming segments processed meanwhile may have
            # moved or cleared it (same re-check the tick loop had).
            if self._retx_deadline is not None and tick_now >= self._retx_deadline:
                yield from self._on_rto()
        finally:
            self._timer_firing = False
        self._wake_timer()

    def _on_rto(self):
        self.timeouts += 1
        self._rtt_seq = None  # Karn: invalidate RTT sample
        if self.state == "SYN_SENT":
            yield from self._emit(FLAG_SYN, seq=self.iss)
            self._retx_deadline = self.sim.now + self._rto()
            self._wake_timer()
            return
        if self.state == "SYN_RCVD":
            yield from self._emit(FLAG_SYN | FLAG_ACK, seq=self.snd_nxt - 1)
            self._retx_deadline = self.sim.now + self._rto()
            self._wake_timer()
            return
        flight = self._flight()
        if flight <= 0 and not self._fin_sent:
            self._retx_deadline = None
            return
        # congestion response: multiplicative decrease + slow start
        self.ssthresh = max(2 * self.cfg.mss, flight // 2)
        self.cwnd = self.cfg.mss
        # go-back-N: retransmit the first outstanding segment
        _o = obs.active
        if len(self._retx):
            payload = bytes(self._retx[: self.cfg.mss])
            self.retransmits += 1
            if _o is not None:
                _o.count("tcp.retransmits")
            yield from self._emit(FLAG_ACK, seq=self.snd_una, payload=payload)
        elif self._fin_sent:
            self.retransmits += 1
            if _o is not None:
                _o.count("tcp.retransmits")
            yield from self._emit(FLAG_FIN | FLAG_ACK, seq=self.snd_nxt - 1)
        self._retx_deadline = self.sim.now + self._rto()
        self._wake_timer()
