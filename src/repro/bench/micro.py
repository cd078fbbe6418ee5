"""Raw U-Net micro-benchmarks (the measurements behind §4 and Table 1).

These run against any of the three NI models and use the U-Net
interface "directly" the way the paper's raw benchmarks do: the
ping-pong echoes messages straight out of the receive buffers (true
zero copy, §3.4) and the streaming benchmark sends repeatedly from one
composed buffer under credit-based flow control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import obs
from repro.core import SINGLE_CELL_MAX, SendDescriptor, UNetCluster, UNetSession
from repro.core.upcall import UpcallCondition, register_upcall
from repro.sim import Simulator, StatSeries


@dataclass
class RttResult:
    size: int
    mean_us: float
    min_us: float
    samples: List[float] = field(default_factory=list)


@dataclass
class BandwidthResult:
    size: int
    bytes_per_second: float
    messages: int
    losses: int


def _build_pair(ni_kind: str, mhz: float, single_cell_optimization: bool = True):
    sim = Simulator()
    cluster = UNetCluster.pair(sim, mhz=mhz, ni_kind=ni_kind)
    if not single_cell_optimization:
        for host in cluster.hosts.values():
            if hasattr(host.ni, "single_cell_optimization"):
                host.ni.single_cell_optimization = False
    kwargs = dict(
        segment_size=512 * 1024, send_ring=128, recv_ring=128, free_ring=128
    )
    sa = cluster.open_session("alice", "bench-a", **kwargs)
    sb = cluster.open_session("bob", "bench-b", **kwargs)
    ch_a, ch_b = cluster.connect_sessions(sa, sb)
    return sim, cluster, sa, sb, ch_a, ch_b


def _echo_one(session: UNetSession, channel_id: int, desc):
    """Echo a received message without copying: inline messages go back
    inline, buffered messages are sent straight from the receive buffers
    and the buffers recycled after injection."""
    if desc.is_inline:
        send = SendDescriptor(channel=channel_id, inline=desc.inline)
        yield from session.send(send)
    else:
        send = SendDescriptor(channel=channel_id, bufs=desc.bufs)
        yield from session.send(send)
        yield session.endpoint.wait_send_complete(send)
        yield from session.repost_free(desc)


def raw_rtt(
    size: int,
    n: int = 8,
    ni_kind: str = "sba200",
    mhz: float = 60.0,
    signal_wakeup: bool = False,
    single_cell_optimization: bool = True,
) -> RttResult:
    """Round-trip time of a ``size``-byte message (Figure 3, 'Raw U-Net').

    ``signal_wakeup`` switches the *receive* notification on both ends
    from polling to a UNIX-signal upcall, the ablation of §4.2.3
    ("approximately another 30 us on each end").
    """
    sim, cluster, sa, sb, ch_a, ch_b = _build_pair(
        ni_kind, mhz, single_cell_optimization
    )
    stats = StatSeries(name=f"rtt-{size}")
    payload = bytes((i * 7 + 3) % 256 for i in range(size))

    def pinger():
        yield from sa.provide_receive_buffers(8)
        if size <= SINGLE_CELL_MAX:
            make = lambda: SendDescriptor(channel=ch_a.ident, inline=payload)
        else:
            offset = sa.alloc(size)
            try:
                yield from sa.write_segment(offset, payload)
            except Exception:
                sa.free(offset, size)
                raise
            make = lambda: SendDescriptor(
                channel=ch_a.ident, bufs=((offset, size),)
            )
        for i in range(n):
            t0 = sim.now
            _o = obs.active
            _sp = (
                _o.begin(t0, "roundtrip", "bench", host="alice")
                if _o is not None
                else None
            )
            yield from sa.send(make())
            desc = yield from sa.recv()
            if signal_wakeup:
                # Signal delivery interposes before the app sees the message.
                yield from sa.host.signal_delivery()
            stats.add(sim.now - t0)
            if _sp is not None:
                _o.observe("rtt_us", sim.now - t0)
                _o.annotate(_sp, i=i, bytes=size)
                _o.end(_sp, sim.now)
            assert sa.peek_payload(desc) == payload
            yield from sa.repost_free(desc)

    def ponger():
        yield from sb.provide_receive_buffers(8)
        for _ in range(n):
            desc = yield from sb.recv()
            if signal_wakeup:
                yield from sb.host.signal_delivery()
            yield from _echo_one(sb, ch_b.ident, desc)

    sim.process(pinger(), name="pinger")
    sim.process(ponger(), name="ponger")
    sim.run(until=1e9)
    if len(stats) != n:
        raise RuntimeError(
            f"ping-pong stalled: only {len(stats)}/{n} round trips completed"
        )
    return RttResult(
        size=size, mean_us=stats.mean, min_us=stats.minimum, samples=stats.samples
    )


def raw_bandwidth(
    size: int,
    n: Optional[int] = None,
    window: int = 32,
    ni_kind: str = "sba200",
    mhz: float = 60.0,
) -> BandwidthResult:
    """Streaming payload bandwidth at one message size (Figure 4).

    Credit-based flow control: the receiver grants ``window//2``-message
    credits on a single-cell reverse message, so no PDU is lost to
    receive-buffer exhaustion and the measurement reflects the pipeline
    bottleneck (i960 per-packet cost vs. wire time).
    """
    if size <= 0:
        raise ValueError("message size must be positive")
    if n is None:
        # Enough messages that fixed start-up costs are amortized.
        n = max(60, min(400, 200_000 // max(size, 40)))
    sim, cluster, sa, sb, ch_a, ch_b = _build_pair(ni_kind, mhz, True)
    payload = bytes((i * 13 + 5) % 256 for i in range(size))
    # Large messages span several 4160-byte receive buffers; shrink the
    # window so the outstanding data always has buffers waiting and the
    # outstanding cells cannot overrun the NI's input FIFO.
    from repro.atm.aal5 import cells_for_pdu

    bufs_per_msg = max(1, -(-size // 4160))
    cells_per_msg = cells_for_pdu(size)
    window = max(2, min(window, 100 // bufs_per_msg, 256 // cells_per_msg))
    grant = max(1, window // 2)
    done = {}

    def sender():
        yield from sa.provide_receive_buffers(4)
        credits = window
        if size <= SINGLE_CELL_MAX:
            make = lambda: SendDescriptor(channel=ch_a.ident, inline=payload)
        else:
            offset = sa.alloc(size)
            try:
                yield from sa.write_segment(offset, payload)
            except Exception:
                sa.free(offset, size)
                raise
            make = lambda: SendDescriptor(channel=ch_a.ident, bufs=((offset, size),))
        done["t0"] = sim.now
        for _ in range(n):
            while credits == 0:
                desc = yield from sa.recv()
                credits += grant
                yield from sa.repost_free(desc)
            yield from sa.send(make())
            credits -= 1
            # Drain any credit that arrived while sending.
            while True:
                desc = sa.recv_poll()
                if desc is None:
                    break
                credits += grant
                yield from sa.repost_free(desc)

    def receiver():
        n_buffers = min(120, window * bufs_per_msg + 8)
        yield from sb.provide_receive_buffers(n_buffers)
        received = 0
        while received < n:
            desc = yield from sb.recv()
            assert desc.length == size
            received += 1
            yield from sb.repost_free(desc)
            if received % grant == 0 and received < n:
                credit = SendDescriptor(channel=ch_b.ident, inline=b"crdt")
                yield from sb.send(credit)
        done["t1"] = sim.now

    sim.process(sender(), name="sender")
    sim.process(receiver(), name="receiver")
    sim.run(until=sim.now + 1e10)
    if "t1" not in done:
        raise RuntimeError(f"bandwidth run stalled at size {size}")
    elapsed_us = done["t1"] - done["t0"]
    losses = (
        sb.endpoint.no_buffer_drops
        + sb.endpoint.receive_drops
        + cluster.hosts["bob"].ni.input_fifo_drops
    )
    return BandwidthResult(
        size=size,
        bytes_per_second=n * size / (elapsed_us / 1e6),
        messages=n,
        losses=losses,
    )


def sba100_cost_breakup() -> dict:
    """Table 1: the single-cell cost breakdown on the SBA-100.

    Returns both the analytic decomposition (from the cost table plus
    wire times) and the measured end-to-end round trip / 1 KB bandwidth.
    """
    from repro.core.ni.costs import Sba100Costs

    costs = Sba100Costs()
    sim = Simulator()
    cluster = UNetCluster.pair(sim, ni_kind="sba100")
    wire_us = _one_way_wire_us(cluster)
    send_aal5 = costs.aal5_send_per_cell_us + costs.crc_us_per_byte * 48
    recv_aal5 = costs.aal5_recv_per_cell_us + costs.crc_us_per_byte * 48
    trap_level = costs.send_trap_us + wire_us + costs.recv_trap_us
    rtt = raw_rtt(32, n=6, ni_kind="sba100")
    bw = raw_bandwidth(1024, ni_kind="sba100")
    return {
        "trap_level_one_way_us": trap_level,
        "send_overhead_aal5_us": send_aal5,
        "recv_overhead_aal5_us": recv_aal5,
        "total_one_way_us": trap_level + send_aal5 + recv_aal5,
        "send_crc_fraction": costs.crc_us_per_byte * 48 / send_aal5,
        "recv_crc_fraction": costs.crc_us_per_byte * 48 / recv_aal5,
        "measured_rtt_us": rtt.mean_us,
        "measured_bw_1k_bytes_per_s": bw.bytes_per_second,
    }


def fore_interface_stats() -> dict:
    """§4.2.1: the vendor-firmware baseline (~160 us RTT, ~13 MB/s @4 KB)."""
    rtt = raw_rtt(32, n=6, ni_kind="fore")
    bw = raw_bandwidth(4096, ni_kind="fore")
    return {
        "rtt_us": rtt.mean_us,
        "bw_4k_bytes_per_s": bw.bytes_per_second,
    }


def _one_way_wire_us(cluster: UNetCluster) -> float:
    """Fiber + switch latency for a single cell, one way."""
    network = cluster.network
    cell_us = network.cell_time_us()
    out_link = network.switch.output_links[0]
    return (
        cell_us  # host -> switch serialization
        + out_link.propagation_us
        + network.switch.switching_latency_us
        + cell_us  # switch -> host serialization
        + out_link.propagation_us
    )
