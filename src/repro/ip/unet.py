"""User-level TCP/UDP/IP over a U-Net channel (§7.1, §7.5-§7.7).

One U-Net channel carries all IP traffic between two applications
(§7.1: the secure multiplexor cannot yet share one VCI among channels,
so this matches the paper's test setup).  The stack runs entirely in
the application's address space: header composition in the
communication segment, checksum combined with the copy (§7.6), a
per-channel PCB cache for UDP demultiplexing, and the TCP engine with
1 ms timers and delayed acks disabled (§7.8).

IP functionality follows §7.5: liberal receive, no send-side
fragmentation (MTU 9 KB), no forwarding, ARP/ICMP not ported.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro import obs
from repro.core import SendDescriptor, UNetSession
from repro.core.errors import UNetError
from repro.ip.headers import (
    IP_HEADER_SIZE,
    PROTO_TCP,
    PROTO_UDP,
    IpDatagram,
    TcpSegment,
    UdpPacket,
)
from repro.ip.tcp import TcpConfig, TcpConnection
from repro.sim import Event

#: §7.5: "IP over U-Net exports an MTU of 9Kbytes".
UNET_IP_MTU = 9 * 1024

#: IP-over-U-Net uses bare IP framing on the channel -- §7.1 notes the
#: implementation is *not* wire-compatible with Classical IP over ATM
#: (RFC 1577 LLC/SNAP); that keeps 40-byte TCP acks within a single cell,
#: which §7.8 relies on ("handled efficiently by single-cell reception").


@dataclass
class UnetIpCosts:
    """User-level protocol processing costs (60 MHz reference)."""

    ip_out_us: float = 1.2
    ip_in_us: float = 1.5
    udp_out_us: float = 3.0
    #: §7.6: "A simple pcb caching scheme per incoming channel allows
    #: for significant processing speedups."
    udp_in_hit_us: float = 2.0
    udp_in_miss_us: float = 6.0
    tcp_out_us: float = 6.0
    tcp_in_us: float = 6.5
    #: header-prediction fast path for pure acknowledgments (§7.8: a
    #: 40-byte TCP/IP header handled by single-cell reception)
    tcp_ack_us: float = 2.0


class UnetIpStack:
    """Per-process IP stack bound to one U-Net session."""

    def __init__(
        self,
        session: UNetSession,
        addr: int,
        costs: Optional[UnetIpCosts] = None,
        recv_buffers: int = 48,
    ):
        self.session = session
        self.host = session.host
        self.sim = session.host.sim
        self.addr = addr
        self.costs = costs if costs is not None else UnetIpCosts()
        self._routes: Dict[int, int] = {}  # peer addr -> channel id
        self._channel_peer: Dict[int, int] = {}
        self._udp_sockets: Dict[int, "UnetUdpSocket"] = {}
        self._tcp_conns: Dict[Tuple[int, int], TcpConnection] = {}
        self._tcp_listeners: Dict[int, TcpConnection] = {}
        #: §7.1 extension: connections bound to an exclusive channel skip
        #: port demultiplexing entirely (channel id -> connection)
        self._tcp_channel_conns: Dict[int, TcpConnection] = {}
        self._pcb_cache: Dict[Tuple[int, int], "UnetUdpSocket"] = {}
        self.tcp_channel_demux_hits = 0
        self._recv_buffers = recv_buffers
        self._next_port = 30000
        self.pcb_hits = 0
        self.pcb_misses = 0
        self.packets_in = 0
        self.packets_out = 0
        self.bad_packets = 0
        self._started = False

    def start(self):
        """Provide receive buffers and start the receive pump."""
        if self._started:
            return
        self._started = True
        yield from self.session.provide_receive_buffers(self._recv_buffers, size=4160)
        self.sim.process(self._pump(), name=f"ipstack.{self.addr}.pump")

    def add_peer(self, peer_addr: int, channel_id: int) -> None:
        """Route all IP traffic for ``peer_addr`` over ``channel_id``."""
        self._routes[peer_addr] = channel_id
        self._channel_peer[channel_id] = peer_addr

    # ------------------------------------------------------------ UDP API
    def udp_socket(self, port: Optional[int] = None) -> "UnetUdpSocket":
        if port is None:
            port = self._alloc_port()
        if port in self._udp_sockets:
            raise UNetError(f"UDP port {port} already bound")
        sock = UnetUdpSocket(self, port)
        self._udp_sockets[port] = sock
        return sock

    # ------------------------------------------------------------ TCP API
    def tcp_connect(
        self, peer_addr: int, port: int, local_port: Optional[int] = None,
        config: Optional[TcpConfig] = None, channel_id: Optional[int] = None,
    ):
        """Generator: active open; returns the established connection.

        ``channel_id`` binds the connection to an exclusive U-Net
        channel (the §7.1 alternative: 'an exclusive U-Net channel per
        TCP connection ... would be simple to implement').
        """
        local_port = local_port or self._alloc_port()
        env = _UnetTcpEnv(self, peer_addr, channel_id=channel_id)
        conn = TcpConnection(
            env, config if config is not None else TcpConfig(),
            src_port=local_port, dst_port=port,
            name=f"tcp.{self.addr}:{local_port}",
        )
        self._tcp_conns[(local_port, port)] = conn
        if channel_id is not None:
            self._tcp_channel_conns[channel_id] = conn
        yield from conn.connect()
        return conn

    def tcp_listen(
        self, port: int, peer_addr: int, config: Optional[TcpConfig] = None,
        channel_id: Optional[int] = None,
    ) -> TcpConnection:
        """Passive open on ``port`` (peer known a priori: no ARP here)."""
        env = _UnetTcpEnv(self, peer_addr, channel_id=channel_id)
        conn = TcpConnection(
            env, config if config is not None else TcpConfig(),
            src_port=port, dst_port=0,
            name=f"tcp.{self.addr}:{port}",
        )
        conn.listen()
        self._tcp_listeners[port] = conn
        if channel_id is not None:
            self._tcp_channel_conns[channel_id] = conn
        return conn

    def _alloc_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    # ------------------------------------------------------------- output
    def send_ip(self, peer_addr: int, proto: int, payload: bytes,
                channel_id: Optional[int] = None):
        if IP_HEADER_SIZE + len(payload) > UNET_IP_MTU:
            # §7.5: no send-side fragmentation, by design.
            raise UNetError(
                f"datagram of {len(payload)} bytes exceeds the 9 KB U-Net "
                "IP MTU and send-side fragmentation is unsupported (§7.5)"
            )
        channel = channel_id if channel_id is not None else self._routes.get(peer_addr)
        if channel is None:
            raise UNetError(f"no route to host {peer_addr}")
        raw = IpDatagram(
            src=self.addr, dst=peer_addr, proto=proto, payload=payload
        ).encode()
        _o = obs.active
        _sp = (
            _o.begin(self.sim.now, "ip_out", "ip", host=self.host.name)
            if _o is not None
            else None
        )
        yield from self.host.compute(self.costs.ip_out_us)
        offset = self.session.alloc(len(raw))
        try:
            yield from self.session.write_segment(offset, raw)
            desc = SendDescriptor(channel=channel, bufs=((offset, len(raw)),))
            yield from self.session.send(desc)
        except Exception:
            # the datagram never reached the ring: reclaim now, since no
            # completion will ever fire for it
            self.session.free(offset, len(raw))
            raise
        if _sp is not None:
            _o.annotate(_sp, bytes=len(raw), proto=proto)
            _o.end(_sp, self.sim.now)
        self.packets_out += 1
        self.session.endpoint.on_send_complete(
            desc, self.session.free, offset, len(raw)
        )

    def send_gathered(self, peer_addr: int, bufs, channel_id: Optional[int] = None):
        """Send an IP packet already composed in the segment as a
        scatter-gather list (§7.3's zero-copy network-buffer path).
        Returns the descriptor so the caller can track injection."""
        channel = channel_id if channel_id is not None else self._routes.get(peer_addr)
        if channel is None:
            raise UNetError(f"no route to host {peer_addr}")
        desc = SendDescriptor(channel=channel, bufs=tuple(bufs))
        yield from self.session.send(desc)
        self.packets_out += 1
        return desc

    # ------------------------------------------------------------- input
    def _pump(self):
        while True:
            try:
                desc = yield from self.session.recv()
            except UNetError:
                return  # the endpoint was destroyed
            _o = obs.active
            _sp = (
                _o.begin(self.sim.now, "ip_in", "ip", host=self.host.name)
                if _o is not None
                else None
            )
            try:
                raw = self.session.peek_payload(desc)
                yield from self.session.repost_free(desc)
                self.packets_in += 1
                yield from self.host.compute(self.costs.ip_in_us)
                try:
                    dgram = IpDatagram.decode(raw)
                except ValueError:
                    self.bad_packets += 1
                    continue
                if dgram.proto == PROTO_UDP:
                    yield from self._deliver_udp(desc.channel, dgram)
                elif dgram.proto == PROTO_TCP:
                    yield from self._deliver_tcp(dgram, channel_id=desc.channel)
                else:
                    self.bad_packets += 1
            finally:
                if _sp is not None:
                    _o.end(_sp, self.sim.now)

    def _deliver_udp(self, channel_id: int, dgram: IpDatagram):
        try:
            packet = UdpPacket.decode(dgram.payload)
        except ValueError:
            self.bad_packets += 1
            return
        key = (channel_id, packet.dst_port)
        _o = obs.active
        _sp = (
            _o.begin(self.sim.now, "udp_in", "udp", host=self.host.name)
            if _o is not None
            else None
        )
        try:
            sock = self._pcb_cache.get(key)
            if sock is not None and sock.port == packet.dst_port:
                self.pcb_hits += 1
                yield from self.host.compute(self.costs.udp_in_hit_us)
            else:
                self.pcb_misses += 1
                yield from self.host.compute(self.costs.udp_in_miss_us)
                sock = self._udp_sockets.get(packet.dst_port)
                if sock is None:
                    self.bad_packets += 1
                    return
                self._pcb_cache[key] = sock
            if packet.with_checksum:
                # §7.6: checksum "can be combined with the copy operation" --
                # charge only the checksum's share here.
                yield from self.host.checksum(len(packet.payload))
            sock._deliver(dgram.src, packet)
        finally:
            if _sp is not None:
                _o.end(_sp, self.sim.now)

    def _deliver_tcp(self, dgram: IpDatagram, channel_id: Optional[int] = None):
        try:
            seg = TcpSegment.decode(dgram.payload)
        except ValueError:
            self.bad_packets += 1
            return
        if channel_id is not None and channel_id in self._tcp_channel_conns:
            # §7.1 extension: the channel IS the demultiplexing key --
            # U-Net's mux already did the work, no port lookup needed
            self.tcp_channel_demux_hits += 1
            conn = self._tcp_channel_conns[channel_id]
            if conn.state == "LISTEN":
                conn.dst_port = seg.src_port
                self._tcp_conns[(conn.src_port, seg.src_port)] = conn
            yield from conn.handle(seg)
            return
        conn = self._tcp_conns.get((seg.dst_port, seg.src_port))
        if conn is None:
            listener = self._tcp_listeners.get(seg.dst_port)
            if listener is not None:
                # promote the listener to a full connection
                listener.dst_port = seg.src_port
                self._tcp_conns[(seg.dst_port, seg.src_port)] = listener
                conn = listener
        if conn is None:
            self.bad_packets += 1
            return
        yield from conn.handle(seg)


class UnetUdpSocket:
    """A user-level UDP socket (§7.6)."""

    def __init__(self, stack: UnetIpStack, port: int):
        self.stack = stack
        self.port = port
        self.checksum_enabled = True
        self._queue: Deque[Tuple[int, UdpPacket]] = deque()
        self._waiters = []
        self.received = 0

    def sendto(self, data: bytes, dest: Tuple[int, int]):
        """Generator: send ``data`` to (host_addr, port)."""
        peer_addr, port = dest
        costs = self.stack.costs
        _o = obs.active
        _sp = (
            _o.begin(self.stack.sim.now, "udp_out", "udp", host=self.stack.host.name)
            if _o is not None
            else None
        )
        yield from self.stack.host.compute(costs.udp_out_us)
        if self.checksum_enabled:
            yield from self.stack.host.checksum(len(data))
        packet = UdpPacket(
            src_port=self.port, dst_port=port, payload=data,
            with_checksum=self.checksum_enabled,
        )
        yield from self.stack.send_ip(peer_addr, PROTO_UDP, packet.encode())
        if _sp is not None:
            _o.annotate(_sp, bytes=len(data))
            _o.end(_sp, self.stack.sim.now)

    def recvfrom(self):
        """Generator: wait for a datagram; returns (data, (addr, port))."""
        while not self._queue:
            event = Event(self.stack.sim)
            self._waiters.append(event)
            yield event
        src, packet = self._queue.popleft()
        return packet.payload, (src, packet.src_port)

    def poll(self) -> Optional[Tuple[bytes, Tuple[int, int]]]:
        if not self._queue:
            return None
        src, packet = self._queue.popleft()
        return packet.payload, (src, packet.src_port)

    def _deliver(self, src: int, packet: UdpPacket) -> None:
        self._queue.append((src, packet))
        self.received += 1
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()


class _UnetTcpEnv:
    """TCP engine environment for the user-level stack.

    Data blocks live in reference-counted segment buffers (§7.3): the
    retransmission queue holds one reference and each in-flight
    descriptor another, so a retransmission re-posts the *same* buffer
    -- scatter-gathered behind a freshly built header -- with no copy.
    """

    HEADER_ROOM = 64

    def __init__(self, stack: UnetIpStack, peer_addr: int, pool_buffers: int = 24,
                 channel_id: Optional[int] = None):
        from repro.ip.bufpool import SegmentBufferPool

        self.stack = stack
        self.peer_addr = peer_addr
        self.channel_id = channel_id  # exclusive per-connection channel (§7.1)
        self.sim = stack.sim
        self._pool: Optional[SegmentBufferPool] = None
        self._pool_buffers = pool_buffers
        self._headers: Optional[SegmentBufferPool] = None
        self._inflight: Dict[Tuple[int, int], object] = {}  # (seq, len) -> RefBuffer
        self.zero_copy_retransmits = 0
        self.pool_fallbacks = 0

    def _pools(self, mss: int):
        from repro.ip.bufpool import SegmentBufferPool

        if self._pool is None:
            self._pool = SegmentBufferPool(
                self.stack.session, self._pool_buffers, mss + self.HEADER_ROOM
            )
            self._headers = SegmentBufferPool(
                self.stack.session, self._pool_buffers, self.HEADER_ROOM
            )
        return self._pool, self._headers

    def output_segment(self, seg: TcpSegment):
        _o = obs.active
        _sp = (
            _o.begin(self.sim.now, "tcp_out", "tcp", host=self.stack.host.name)
            if _o is not None
            else None
        )
        try:
            yield from self._output_segment(seg)
        finally:
            if _sp is not None:
                _o.annotate(_sp, bytes=len(seg.payload))
                _o.end(_sp, self.sim.now)

    def _output_segment(self, seg: TcpSegment):
        if not seg.payload:
            yield from self.stack.host.compute(self.stack.costs.tcp_ack_us)
            yield from self.stack.send_ip(
                self.peer_addr, PROTO_TCP, seg.encode(),
                channel_id=self.channel_id,
            )
            return
        yield from self.stack.host.compute(self.stack.costs.tcp_out_us)
        yield from self.stack.host.checksum(len(seg.payload))
        pool, headers = self._pools(max(2048, len(seg.payload)))
        key = (seg.seq, len(seg.payload))
        data_buf = self._inflight.get(key)
        header_buf = headers.try_acquire()
        if header_buf is None or (data_buf is None and pool.available == 0):
            # buffer pool exhausted: classic copy path
            if header_buf is not None:
                header_buf.decref()
            self.pool_fallbacks += 1
            yield from self.stack.send_ip(
                self.peer_addr, PROTO_TCP, seg.encode(),
                channel_id=self.channel_id,
            )
            return
        raw = IpDatagram(
            src=self.stack.addr, dst=self.peer_addr, proto=PROTO_TCP,
            payload=seg.encode(),
        ).encode()
        header_len = IP_HEADER_SIZE + 20  # IP + TCP headers
        yield from header_buf.fill(self.stack.session, raw[:header_len])
        if data_buf is None:
            data_buf = pool.try_acquire()
            yield from data_buf.fill(self.stack.session, seg.payload)
            self._inflight[key] = data_buf  # retransmission-queue reference
        else:
            # retransmission: the data is already in the segment
            self.zero_copy_retransmits += 1
        data_buf.incref()  # in-flight reference
        desc = yield from self.stack.send_gathered(
            self.peer_addr,
            [(header_buf.offset, header_len), (data_buf.offset, data_buf.length)],
            channel_id=self.channel_id,
        )
        endpoint = self.stack.session.endpoint
        endpoint.on_send_complete(desc, header_buf.decref)
        endpoint.on_send_complete(desc, data_buf.decref)

    def on_acked(self, snd_una: int) -> None:
        """Engine hook: drop the retransmission-queue references of
        fully acknowledged segments."""
        for key in [k for k in self._inflight if k[0] + k[1] <= snd_una]:
            self._inflight.pop(key).decref()

    def segment_cost_us(self, payload_bytes: int):
        _o = obs.active
        _sp = (
            _o.begin(self.sim.now, "tcp_in", "tcp", host=self.stack.host.name)
            if _o is not None
            else None
        )
        if payload_bytes:
            yield from self.stack.host.compute(self.stack.costs.tcp_in_us)
            yield from self.stack.host.checksum(payload_bytes)
        else:
            yield from self.stack.host.compute(self.stack.costs.tcp_ack_us)
        if _sp is not None:
            _o.annotate(_sp, bytes=payload_bytes)
            _o.end(_sp, self.sim.now)
