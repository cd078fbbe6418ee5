"""The in-kernel BSD networking path -- the baseline U-Net beats (§7).

Everything the paper blames is here:

* every send/receive crosses the kernel (system call + socket layer),
* packet data lives in mbuf chains -- 1 KB clusters plus, for
  remainders under 512 bytes, chains of 112-byte small mbufs with no
  reference counts (the Figure 7 saw-tooth),
* the socket receive buffer is capped at 52 KB; overruns silently drop
  packets (§7.3),
* the device output queue "will drop random packets ... if there is
  overload without notifying the sending application" (§7.4),
* the Fore ATM driver + vendor firmware are expensive per packet,
* protocol timers tick at the BSD 500 ms granularity (§7.8),
* delayed acks are on.

The TCP/UDP *protocol code* is the same as the U-Net stack's -- the
difference is purely the execution environment (§7.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from repro import obs
from repro.core import SendDescriptor, UNetSession
from repro.core.errors import UNetError
from repro.host import Workstation
from repro.ip.ethernet import ETHERNET_MTU, EthernetPort
from repro.ip.headers import (
    IP_HEADER_SIZE,
    PROTO_TCP,
    PROTO_UDP,
    IpDatagram,
    TcpSegment,
    UdpPacket,
)
from repro.ip.mbuf import mbuf_chain_for
from repro.ip.tcp import TcpConfig, TcpConnection
from repro.sim import Event, Store


@dataclass
class KernelCosts:
    """SunOS 4.1.3 path costs at the 60 MHz reference clock, sized to
    put small-message kernel RTTs near a millisecond -- an order of
    magnitude over U-Net, as Figures 6 and 9 show."""

    sosend_us: float = 45.0
    soreceive_us: float = 40.0
    udp_out_us: float = 35.0
    udp_in_us: float = 35.0
    tcp_out_us: float = 60.0
    tcp_in_us: float = 55.0
    ip_us: float = 20.0
    #: handling cost per cluster mbuf in a chain
    mbuf_cluster_us: float = 6.0
    #: handling cost per 112-byte small mbuf (copied: no refcounts)
    mbuf_small_us: float = 25.0
    #: Fore driver per-packet costs (kernel side of the vendor firmware)
    fore_tx_us: float = 120.0
    fore_rx_us: float = 170.0
    #: Lance Ethernet driver per-packet costs
    eth_tx_us: float = 100.0
    eth_rx_us: float = 110.0
    #: process wakeup when data reaches a blocked socket
    wakeup_us: float = 25.0
    #: "the restricted size of the socket receive buffer (max. 52Kbytes
    #: in SunOS)" (§7.3)
    sockbuf_bytes: int = 52 * 1024
    #: device output queue length in packets (BSD ifq_maxlen)
    devq_packets: int = 46


class AtmKernelDevice:
    """The Fore ATM interface as the kernel sees it: a bounded output
    queue in front of the vendor firmware NI (point-to-point channel)."""

    #: Classical-IP-over-ATM MTU: the largest IP datagram the device takes.
    mtu = 9180

    def __init__(self, session: UNetSession, channel_id: int, costs: KernelCosts):
        self.session = session
        self.host = session.host
        self.sim = session.host.sim
        self.costs = costs
        self.channel_id = channel_id
        self._devq = Store(self.sim, capacity=costs.devq_packets)
        self._rx_cb: Optional[Callable] = None
        self.tx_drops = 0
        self.packets_sent = 0
        self.packets_received = 0
        self._started = False

    def start(self):
        if self._started:
            return
        self._started = True
        yield from self.session.provide_receive_buffers(60, size=4160)
        self.sim.process(self._tx_proc(), name="atmdev.tx")
        self.sim.process(self._rx_proc(), name="atmdev.rx")

    def on_receive(self, callback: Callable) -> None:
        self._rx_cb = callback

    def transmit(self, raw: bytes) -> bool:
        """Enqueue on the device output queue; silently drops when the
        queue overflows (§7.4)."""
        if not self._devq.try_put(raw):
            self.tx_drops += 1
            return False
        return True

    LLC_SNAP = bytes([0xAA, 0xAA, 0x03, 0x00, 0x00, 0x00, 0x08, 0x00])

    def _tx_proc(self):
        while True:
            raw = yield self._devq.get()
            raw = self.LLC_SNAP + raw  # RFC 1577 encapsulation
            _o = obs.active
            _sp = (
                _o.begin(self.sim.now, "k_dev_tx", "kernel", host=self.host.name)
                if _o is not None
                else None
            )
            yield from self.host.cpu.compute(self.costs.fore_tx_us, priority=SPLNET)
            offset = self.session.alloc(len(raw))
            try:
                # the interface DMAs straight out of the mbufs: no extra host
                # copy, only descriptor/DMA setup
                self.session.endpoint.segment.write(offset, raw)
                yield from self.host.cpu.compute(10.0, priority=SPLNET)
                desc = SendDescriptor(
                    channel=self.channel_id, bufs=((offset, len(raw)),)
                )
                yield from self.session.send(desc)
            except Exception:
                # failed before the firmware took ownership: the buffer
                # would otherwise leak out of the device segment
                self.session.free(offset, len(raw))
                raise
            if _sp is not None:
                _o.annotate(_sp, bytes=len(raw))
                _o.end(_sp, self.sim.now)
            # The driver moves on once the descriptor is queued; the
            # buffer is reclaimed when the firmware marks it injected.
            self.session.endpoint.on_send_complete(
                desc, self.session.free, offset, len(raw)
            )
            self.packets_sent += 1

    def _rx_proc(self):
        while True:
            try:
                desc = yield from self.session.recv()
            except UNetError:
                return  # the endpoint was destroyed
            _o = obs.active
            _sp = (
                _o.begin(self.sim.now, "k_dev_rx", "kernel", host=self.host.name)
                if _o is not None
                else None
            )
            try:
                raw = self.session.peek_payload(desc)
                yield from self.session.repost_free(desc)
                yield from self.host.cpu.compute(
                    self.costs.fore_rx_us, priority=SPLNET
                )
                if not raw.startswith(self.LLC_SNAP):
                    continue
                self.packets_received += 1
                if self._rx_cb is not None:
                    yield from self._rx_cb(raw[len(self.LLC_SNAP):])
            finally:
                if _sp is not None:
                    _o.end(_sp, self.sim.now)


class EthernetKernelDevice:
    """Lance Ethernet: cheaper driver, slower wire, device-level
    fragmentation/reassembly for datagrams over the 1500-byte MTU."""

    mtu = 8 * 1024  # what the stack may hand us; we fragment below

    FRAG = 1480

    def __init__(self, host: Workstation, port: EthernetPort, peer: int,
                 costs: KernelCosts):
        self.host = host
        self.sim = host.sim
        self.port = port
        self.peer = peer
        self.costs = costs
        self._devq = Store(self.sim, capacity=costs.devq_packets)
        self._rx_cb: Optional[Callable] = None
        self._partial: Dict[Tuple[int, int], list] = {}
        self._next_id = 0
        self.tx_drops = 0
        self.packets_sent = 0
        self.packets_received = 0
        self._started = False
        port.set_rx_sink(self._frame_sink)
        self._rx_frames = Store(self.sim)

    def start(self):
        if self._started:
            return
        self._started = True
        self.sim.process(self._tx_proc(), name="ethdev.tx")
        self.sim.process(self._rx_proc(), name="ethdev.rx")
        return
        yield  # pragma: no cover

    def on_receive(self, callback: Callable) -> None:
        self._rx_cb = callback

    def transmit(self, raw: bytes) -> bool:
        if not self._devq.try_put(raw):
            self.tx_drops += 1
            return False
        return True

    def _tx_proc(self):
        import struct

        while True:
            raw = yield self._devq.get()
            pkt_id = self._next_id
            self._next_id = (self._next_id + 1) & 0xFFFF
            frags = [raw[i : i + self.FRAG] for i in range(0, len(raw), self.FRAG)] or [b""]
            for idx, frag in enumerate(frags):
                # per-fragment driver cost (fragmentation is why §7.5
                # calls it "a potential source for wasting bandwidth")
                yield from self.host.cpu.compute(self.costs.eth_tx_us, priority=SPLNET)
                header = struct.pack(">HBB", pkt_id, idx, len(frags))
                self.port.send_frame(self.peer, header + frag)
            self.packets_sent += 1

    def _frame_sink(self, frame) -> None:
        self._rx_frames.try_put(frame)

    def _rx_proc(self):
        import struct

        while True:
            frame = yield self._rx_frames.get()
            yield from self.host.cpu.compute(self.costs.eth_rx_us, priority=SPLNET)
            pkt_id, idx, count = struct.unpack(">HBB", frame.payload[:4])
            body = frame.payload[4:]
            key = (frame.src, pkt_id)
            parts = self._partial.setdefault(key, [None] * count)
            parts[idx] = body
            if all(p is not None for p in parts):
                del self._partial[key]
                self.packets_received += 1
                if self._rx_cb is not None:
                    yield from self._rx_cb(b"".join(parts))


#: CPU priority for interrupt-level network processing (splnet): it is
#: served before any queued process-level work, which is exactly how the
#: BSD rx path starves applications under load (§7.3's buffer overruns).
SPLNET = -1


class KernelStack:
    """The in-kernel protocol stack bound to one device."""

    def __init__(self, host: Workstation, device, addr: int,
                 costs: Optional[KernelCosts] = None):
        self.host = host
        self.sim = host.sim
        self.device = device
        self.addr = addr
        self.costs = costs if costs is not None else KernelCosts()
        self._udp_sockets: Dict[int, "KernelUdpSocket"] = {}
        self._tcp_conns: Dict[Tuple[int, int], TcpConnection] = {}
        self._tcp_listeners: Dict[int, TcpConnection] = {}
        self._next_port = 20000
        self.packets_in = 0
        self.bad_packets = 0
        self.sockbuf_drops = 0
        device.on_receive(self._ip_input)

    def start(self):
        yield from self.device.start()

    # ------------------------------------------------------------- output
    def _mbuf_cost(self, size: int, priority: int = 0):
        chain = mbuf_chain_for(size)
        yield from self.host.cpu.compute(
            chain.processing_us(self.costs.mbuf_cluster_us, self.costs.mbuf_small_us),
            priority=priority,
        )

    def ip_output(self, dst: int, proto: int, payload: bytes):
        if IP_HEADER_SIZE + len(payload) > self.device.mtu:
            raise ValueError(
                f"datagram of {len(payload)} bytes exceeds device MTU"
            )
        _o = obs.active
        _sp = (
            _o.begin(self.sim.now, "k_ip_out", "kernel", host=self.host.name)
            if _o is not None
            else None
        )
        yield from self.host.compute(self.costs.ip_us)
        raw = IpDatagram(src=self.addr, dst=dst, proto=proto, payload=payload).encode()
        self.device.transmit(raw)
        if _sp is not None:
            _o.end(_sp, self.sim.now)

    # ------------------------------------------------------------- input
    def _ip_input(self, raw: bytes):
        _o = obs.active
        _sp = (
            _o.begin(self.sim.now, "k_ip_in", "kernel", host=self.host.name)
            if _o is not None
            else None
        )
        try:
            yield from self.host.cpu.compute(self.costs.ip_us, priority=SPLNET)
            self.packets_in += 1
            try:
                dgram = IpDatagram.decode(raw)
            except ValueError:
                self.bad_packets += 1
                return
            if dgram.proto == PROTO_UDP:
                yield from self._udp_input(dgram)
            elif dgram.proto == PROTO_TCP:
                yield from self._tcp_input(dgram)
        finally:
            if _sp is not None:
                _o.end(_sp, self.sim.now)

    def _udp_input(self, dgram: IpDatagram):
        yield from self.host.cpu.compute(self.costs.udp_in_us, priority=SPLNET)
        yield from self._mbuf_cost(len(dgram.payload), priority=SPLNET)
        try:
            packet = UdpPacket.decode(dgram.payload)
        except ValueError:
            self.bad_packets += 1
            return
        sock = self._udp_sockets.get(packet.dst_port)
        if sock is None:
            self.bad_packets += 1
            return
        # §7.3: the bounded socket receive buffer drops on overrun.
        if sock.buffered_bytes + len(packet.payload) > self.costs.sockbuf_bytes:
            self.sockbuf_drops += 1
            sock.drops += 1
            return
        yield from self.host.cpu.compute(self.costs.wakeup_us, priority=SPLNET)
        sock._deliver(dgram.src, packet)

    def _tcp_input(self, dgram: IpDatagram):
        try:
            seg = TcpSegment.decode(dgram.payload)
        except ValueError:
            self.bad_packets += 1
            return
        conn = self._tcp_conns.get((seg.dst_port, seg.src_port))
        if conn is None:
            listener = self._tcp_listeners.get(seg.dst_port)
            if listener is not None:
                listener.dst_port = seg.src_port
                self._tcp_conns[(seg.dst_port, seg.src_port)] = listener
                conn = listener
        if conn is None:
            self.bad_packets += 1
            return
        yield from conn.handle(seg)

    # ------------------------------------------------------------- sockets
    def udp_socket(self, port: Optional[int] = None) -> "KernelUdpSocket":
        if port is None:
            port = self._alloc_port()
        if port in self._udp_sockets:
            raise UNetError(f"UDP port {port} already bound")
        sock = KernelUdpSocket(self, port)
        self._udp_sockets[port] = sock
        return sock

    def tcp_config(self, **overrides) -> TcpConfig:
        """Kernel TCP defaults: 4 KB segments over ATM, BSD 500 ms
        timers, delayed acks on."""
        defaults = dict(
            # IP-over-ATM MTU is 9180: the kernel negotiates a 9140-byte
            # MSS (§7.8 notes large segments are the kernel's habit and
            # its risk under cell loss).
            mss=9140,
            window=52 * 1024,
            timer_granularity_us=500_000.0,
            delayed_ack=True,
        )
        defaults.update(overrides)
        return TcpConfig(**defaults)

    def tcp_connect(self, peer_addr: int, port: int,
                    local_port: Optional[int] = None,
                    config: Optional[TcpConfig] = None):
        local_port = local_port or self._alloc_port()
        conn = TcpConnection(
            _KernelTcpEnv(self, peer_addr), config or self.tcp_config(),
            src_port=local_port, dst_port=port,
            name=f"ktcp.{self.addr}:{local_port}",
        )
        self._tcp_conns[(local_port, port)] = conn
        yield from conn.connect()
        return conn

    def tcp_listen(self, port: int, peer_addr: int,
                   config: Optional[TcpConfig] = None) -> TcpConnection:
        conn = TcpConnection(
            _KernelTcpEnv(self, peer_addr), config or self.tcp_config(),
            src_port=port, dst_port=0,
            name=f"ktcp.{self.addr}:{port}",
        )
        conn.listen()
        self._tcp_listeners[port] = conn
        return conn

    def _alloc_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port


class KernelUdpSocket:
    """A SunOS UDP socket: syscalls, mbufs, bounded buffers."""

    def __init__(self, stack: KernelStack, port: int):
        self.stack = stack
        self.port = port
        self._queue: Deque[Tuple[int, UdpPacket]] = deque()
        self._waiters = []
        self.buffered_bytes = 0
        self.sent = 0
        self.received = 0
        self.drops = 0

    def sendto(self, data: bytes, dest: Tuple[int, int]):
        peer, port = dest
        host = self.stack.host
        costs = self.stack.costs
        _o = obs.active
        _sp = (
            _o.begin(self.stack.sim.now, "k_sosend", "kernel", host=host.name)
            if _o is not None
            else None
        )
        yield from host.syscall()
        yield from host.compute(costs.sosend_us)
        yield from host.copy(len(data))  # user -> mbuf copy
        yield from self.stack._mbuf_cost(len(data) + 8)
        yield from host.compute(costs.udp_out_us)
        packet = UdpPacket(src_port=self.port, dst_port=port, payload=data)
        yield from self.stack.ip_output(peer, PROTO_UDP, packet.encode())
        self.sent += 1
        if _sp is not None:
            _o.annotate(_sp, bytes=len(data))
            _o.end(_sp, self.stack.sim.now)

    def recvfrom(self):
        host = self.stack.host
        while not self._queue:
            event = Event(self.stack.sim)
            self._waiters.append(event)
            yield event
        src, packet = self._queue.popleft()
        self.buffered_bytes -= len(packet.payload)
        _o = obs.active
        _sp = (
            _o.begin(self.stack.sim.now, "k_soreceive", "kernel", host=host.name)
            if _o is not None
            else None
        )
        yield from host.syscall()
        yield from host.compute(self.stack.costs.soreceive_us)
        yield from host.copy(len(packet.payload))  # mbuf -> user copy
        if _sp is not None:
            _o.annotate(_sp, bytes=len(packet.payload))
            _o.end(_sp, self.stack.sim.now)
        return packet.payload, (src, packet.src_port)

    def _deliver(self, src: int, packet: UdpPacket) -> None:
        self._queue.append((src, packet))
        self.buffered_bytes += len(packet.payload)
        self.received += 1
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()


class _KernelTcpEnv:
    """TCP engine environment for the kernel stack."""

    def __init__(self, stack: KernelStack, peer_addr: int):
        self.stack = stack
        self.peer_addr = peer_addr
        self.sim = stack.sim

    def output_segment(self, seg: TcpSegment):
        host = self.stack.host
        costs = self.stack.costs
        _o = obs.active
        _sp = (
            _o.begin(self.sim.now, "k_tcp_out", "kernel", host=host.name)
            if _o is not None
            else None
        )
        yield from host.compute(costs.tcp_out_us)
        yield from host.copy(len(seg.payload))  # socket buffer -> mbufs
        yield from self.stack._mbuf_cost(len(seg.payload) + 20)
        yield from self.stack.ip_output(self.peer_addr, PROTO_TCP, seg.encode())
        if _sp is not None:
            _o.annotate(_sp, bytes=len(seg.payload))
            _o.end(_sp, self.sim.now)

    def segment_cost_us(self, payload_bytes: int):
        host = self.stack.host
        costs = self.stack.costs
        _o = obs.active
        _sp = (
            _o.begin(self.sim.now, "k_tcp_in", "kernel", host=host.name)
            if _o is not None
            else None
        )
        yield from host.cpu.compute(costs.tcp_in_us, priority=SPLNET)
        yield from self.stack._mbuf_cost(payload_bytes + 20, priority=SPLNET)
        yield from host.cpu.compute(
            host.costs.copy_us(payload_bytes), priority=SPLNET
        )  # mbufs -> socket buffer
        if payload_bytes:
            yield from host.cpu.compute(costs.wakeup_us, priority=SPLNET)
        if _sp is not None:
            _o.annotate(_sp, bytes=payload_bytes)
            _o.end(_sp, self.sim.now)
