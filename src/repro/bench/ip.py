"""IP-suite benchmarks behind Figures 6-9 and Table 3's UDP/TCP rows.

Four configurations:

* ``unet`` -- user-level stack over U-Net on the SBA-200 (the paper's
  contribution),
* ``kernel-atm`` -- SunOS stack + Fore driver + vendor firmware,
* ``kernel-eth`` -- SunOS stack over 10 Mbit/s Ethernet (Figure 6's
  reference point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import UNetCluster
from repro.ip.ethernet import EthernetLan
from repro.ip.kernel import (
    AtmKernelDevice,
    EthernetKernelDevice,
    KernelCosts,
    KernelStack,
)
from repro.ip.tcp import TcpConfig
from repro.ip.unet import UnetIpStack
from repro.sim import Simulator, StatSeries


@dataclass
class IpRttResult:
    size: int
    mean_us: float


@dataclass
class UdpBandwidthResult:
    size: int
    send_rate: float  # bytes/sec perceived at the sender
    recv_rate: float  # bytes/sec actually received
    sent: int
    received: int
    drops: int


@dataclass
class TcpBandwidthResult:
    write_size: int
    window: int
    bytes_per_second: float
    retransmits: int


# ----------------------------------------------------------------- builders
def build_unet_pair():
    sim = Simulator()
    cluster = UNetCluster.pair(sim)
    kwargs = dict(segment_size=1024 * 1024, send_ring=48, recv_ring=192, free_ring=192)
    sa = cluster.open_session("alice", "ipa", **kwargs)
    sb = cluster.open_session("bob", "ipb", **kwargs)
    ch_a, ch_b = cluster.connect_sessions(sa, sb)
    # §7.3: "the resources of the actual recipient ... become the main
    # control factor and this can be tuned to meet application needs" --
    # the U-Net benchmarks give the receiver ample buffers and lose
    # nothing; the kernel path cannot be tuned this way.
    stack_a = UnetIpStack(sa, addr=1, recv_buffers=110)
    stack_b = UnetIpStack(sb, addr=2, recv_buffers=110)
    stack_a.add_peer(2, ch_a.ident)
    stack_b.add_peer(1, ch_b.ident)

    def boot():
        yield from stack_a.start()
        yield from stack_b.start()

    sim.process(boot(), name="boot")
    # let both stacks finish posting receive buffers before any traffic
    sim.run(until=5000.0)
    return sim, cluster, stack_a, stack_b


def build_kernel_atm_pair():
    sim = Simulator()
    cluster = UNetCluster.pair(sim, ni_kind="fore")
    # the vendor firmware interface has a short transmit queue: once it
    # and the 46-packet device queue fill, SunOS drops (§7.4)
    kwargs = dict(segment_size=512 * 1024, send_ring=12, recv_ring=128, free_ring=128)
    sa = cluster.open_session("alice", "<kernel>", **kwargs)
    sb = cluster.open_session("bob", "<kernel>", **kwargs)
    ch_a, ch_b = cluster.connect_sessions(sa, sb)
    dev_a = AtmKernelDevice(sa, ch_a.ident, costs=KernelCosts())
    dev_b = AtmKernelDevice(sb, ch_b.ident, costs=KernelCosts())
    stack_a = KernelStack(cluster.hosts["alice"], dev_a, addr=1)
    stack_b = KernelStack(cluster.hosts["bob"], dev_b, addr=2)

    def boot():
        yield from stack_a.start()
        yield from stack_b.start()

    sim.process(boot(), name="boot")
    # let both stacks finish posting receive buffers before any traffic
    sim.run(until=5000.0)
    return sim, cluster, stack_a, stack_b


def build_kernel_eth_pair():
    sim = Simulator()
    from repro.host import Workstation
    from repro.ip.kernel import KernelCosts

    host_a = Workstation(sim, "alice", mhz=60.0)
    host_b = Workstation(sim, "bob", mhz=60.0)
    lan = EthernetLan(sim)
    port_a = lan.attach(1)
    port_b = lan.attach(2)
    dev_a = EthernetKernelDevice(host_a, port_a, peer=2, costs=KernelCosts())
    dev_b = EthernetKernelDevice(host_b, port_b, peer=1, costs=KernelCosts())
    stack_a = KernelStack(host_a, dev_a, addr=1)
    stack_b = KernelStack(host_b, dev_b, addr=2)

    def boot():
        yield from stack_a.start()
        yield from stack_b.start()

    sim.process(boot(), name="boot")
    # let both stacks finish posting receive buffers before any traffic
    sim.run(until=5000.0)
    return sim, lan, stack_a, stack_b


_BUILDERS = {
    "unet": build_unet_pair,
    "kernel-atm": build_kernel_atm_pair,
    "kernel-eth": build_kernel_eth_pair,
}


# ----------------------------------------------------------------- UDP RTT
def udp_rtt(size: int, kind: str = "unet", n: int = 5) -> IpRttResult:
    """UDP request/response round trip (Figures 6 and 9)."""
    sim, _net, stack_a, stack_b = _BUILDERS[kind]()
    sock_a = stack_a.udp_socket(5000)
    sock_b = stack_b.udp_socket(6000)
    stats = StatSeries(f"udp-rtt-{kind}-{size}")
    payload = bytes(size)

    def client():
        for _ in range(n):
            t0 = sim.now
            yield from sock_a.sendto(payload, (2, 6000))
            data, _src = yield from sock_a.recvfrom()
            stats.add(sim.now - t0)
            assert data == payload

    def server():
        for _ in range(n):
            data, (src, port) = yield from sock_b.recvfrom()
            yield from sock_b.sendto(data, (src, port))

    sim.process(client())
    sim.process(server())
    sim.run(until=1e9)
    if len(stats) != n:
        raise RuntimeError(f"UDP ping-pong stalled ({kind}, {size}B)")
    return IpRttResult(size=size, mean_us=stats.mean)


# ----------------------------------------------------------------- TCP RTT
def tcp_rtt(size: int, kind: str = "unet", n: int = 5,
            config: Optional[TcpConfig] = None) -> IpRttResult:
    """TCP request/response round trip on an established connection."""
    sim, _net, stack_a, stack_b = _BUILDERS[kind]()
    stats = StatSeries(f"tcp-rtt-{kind}-{size}")
    payload = bytes(max(1, size))
    server_conn = stack_b.tcp_listen(7000, peer_addr=1, config=config)

    def client():
        conn = yield from stack_a.tcp_connect(2, 7000, config=config)
        for _ in range(n):
            t0 = sim.now
            yield from conn.send(payload)
            got = b""
            while len(got) < len(payload):
                chunk = yield from conn.recv(len(payload) - len(got))
                got += chunk
            stats.add(sim.now - t0)

    def server():
        yield from server_conn.wait_established()
        for _ in range(n):
            got = b""
            while len(got) < len(payload):
                chunk = yield from server_conn.recv(len(payload) - len(got))
                got += chunk
            yield from server_conn.send(got)

    sim.process(client())
    sim.process(server())
    sim.run(until=1e10)
    if len(stats) != n:
        raise RuntimeError(f"TCP ping-pong stalled ({kind}, {size}B)")
    return IpRttResult(size=size, mean_us=stats.mean)


# ------------------------------------------------------------ UDP bandwidth
def udp_bandwidth(size: int, kind: str = "unet", n: Optional[int] = None,
                  pace_us: float = 0.0) -> UdpBandwidthResult:
    """One-way UDP stream (Figure 7).

    The sender blasts datagrams as fast as the stack lets it; U-Net UDP
    loses nothing (receiver resources govern, §7.3), the kernel path
    drops at the device output queue and the 52 KB socket buffer.
    """
    if n is None:
        n = max(150, min(800, 1_600_000 // max(size, 200)))
    sim, _net, stack_a, stack_b = _BUILDERS[kind]()
    sock_a = stack_a.udp_socket(5000)
    sock_b = stack_b.udp_socket(6000)
    payload = bytes(size)
    times = {}

    def sender():
        times["t0"] = sim.now
        for _ in range(n):
            yield from sock_a.sendto(payload, (2, 6000))
            if pace_us:
                yield sim.timeout(pace_us)
        times["t_send_done"] = sim.now

    def receiver():
        while True:
            data, _src = yield from sock_b.recvfrom()
            times["t_last_recv"] = sim.now

    sim.process(sender())
    sim.process(receiver())
    sim.run(until=sim.now + 5e7)
    elapsed_send = times["t_send_done"] - times["t0"]
    # measure delivered goodput over the whole session, so receivers that
    # starve early (heavy loss) do not report inflated rates
    elapsed_recv = (
        max(times.get("t_last_recv", 0.0), times["t_send_done"]) - times["t0"]
    )
    received = sock_b.received
    return UdpBandwidthResult(
        size=size,
        send_rate=n * size / (elapsed_send / 1e6) if elapsed_send else 0.0,
        recv_rate=received * size / (elapsed_recv / 1e6) if elapsed_recv else 0.0,
        sent=n,
        received=received,
        drops=n - received,
    )


# ------------------------------------------------------------ TCP bandwidth
def tcp_bandwidth(
    write_size: int,
    kind: str = "unet",
    window: Optional[int] = None,
    total_bytes: Optional[int] = None,
    mss: Optional[int] = None,
    delayed_ack: Optional[bool] = None,
) -> TcpBandwidthResult:
    """One-way TCP stream (Figure 8): the application writes
    ``write_size``-byte buffers as fast as the stack accepts them."""
    if total_bytes is None:
        total_bytes = 600_000
    sim, _net, stack_a, stack_b = _BUILDERS[kind]()
    if kind == "unet":
        config = TcpConfig(window=window or 8192)
    else:
        config = stack_b.tcp_config(window=window or 52 * 1024)
    if mss:
        config.mss = mss
    if delayed_ack is not None:
        config.delayed_ack = delayed_ack
    server_conn = stack_b.tcp_listen(7000, peer_addr=1, config=config)
    payload = bytes(write_size)
    writes = max(1, total_bytes // write_size)
    times = {}
    state = {"received": 0}

    def client():
        conn = yield from stack_a.tcp_connect(2, 7000, config=config)
        times["t0"] = sim.now
        for _ in range(writes):
            yield from conn.send(payload)

    def server():
        yield from server_conn.wait_established()
        goal = writes * write_size
        while state["received"] < goal:
            chunk = yield from server_conn.recv(1 << 20)
            if not chunk:
                break
            state["received"] += len(chunk)
        times["t1"] = sim.now

    sim.process(client())
    sim.process(server())
    sim.run(until=sim.now + 1e10)
    if "t1" not in times:
        raise RuntimeError(
            f"TCP stream stalled ({kind}, write={write_size}, "
            f"got {state['received']})"
        )
    elapsed = times["t1"] - times["t0"]
    return TcpBandwidthResult(
        write_size=write_size,
        window=config.window,
        bytes_per_second=state["received"] / (elapsed / 1e6),
        retransmits=server_conn.retransmits,
    )
