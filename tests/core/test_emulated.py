"""Kernel-emulated endpoints (§3.5): same interface, slower path."""

import pytest

from repro.core import SendDescriptor, UNetCluster
from repro.core.kernel_agent import ResourceLimits
from repro.sim import Simulator

from tests.core.conftest import run


def build(emulated=True):
    sim = Simulator()
    cluster = UNetCluster.pair(sim)
    sa = cluster.open_session("alice", "pa", emulated=emulated)
    sb = cluster.open_session("bob", "pb", emulated=emulated)
    ch_a, ch_b = cluster.connect_sessions(sa, sb)
    return sim, cluster, sa, sb, ch_a, ch_b


def ping_once(sim, sa, sb, ch_a, ch_b, size=32):
    payload = bytes(size)
    out = {}

    def pinger():
        yield from sa.provide_receive_buffers(4)
        t0 = sim.now
        yield from sa.send_copy(ch_a.ident, payload)
        desc = yield from sa.recv()
        out["rtt"] = sim.now - t0
        out["data"] = sa.peek_payload(desc)

    def ponger():
        yield from sb.provide_receive_buffers(4)
        desc = yield from sb.recv()
        yield from sb.send_copy(ch_b.ident, sb.peek_payload(desc))

    run(sim, pinger(), ponger())
    return out


class TestEmulatedTransfer:
    def test_small_message_roundtrip(self):
        sim, cluster, sa, sb, ch_a, ch_b = build()
        out = ping_once(sim, sa, sb, ch_a, ch_b)
        assert out["data"] == bytes(32)

    def test_large_message_roundtrip(self):
        sim, cluster, sa, sb, ch_a, ch_b = build()
        payload = bytes(range(256)) * 16  # 4 KB
        got = {}

        def sender():
            yield from sa.send_copy(ch_a.ident, payload)

        def receiver():
            yield from sb.provide_receive_buffers(4)
            desc = yield from sb.recv()
            got["data"] = yield from sb.recv_payload(desc)

        run(sim, sender(), receiver())
        assert got["data"] == payload

    def test_emulated_to_regular_interop(self):
        """An emulated endpoint can talk to a regular one."""
        sim = Simulator()
        cluster = UNetCluster.pair(sim)
        sa = cluster.open_session("alice", "pa", emulated=True)
        sb = cluster.open_session("bob", "pb")  # regular
        ch_a, ch_b = cluster.connect_sessions(sa, sb)
        got = {}

        def sender():
            yield from sa.send(SendDescriptor(channel=ch_a.ident, inline=b"mix"))

        def receiver():
            desc = yield from sb.recv()
            got["data"] = desc.inline

        run(sim, sender(), receiver())
        assert got["data"] == b"mix"


class TestEmulatedPerformance:
    def test_emulated_slower_than_regular(self):
        """§3.5: emulated endpoints 'cannot offer the same level of
        performance'."""
        sim_e, *rest_e = build(emulated=True)
        rtt_e = ping_once(sim_e, *rest_e[1:])["rtt"]
        sim_r, *rest_r = build(emulated=False)
        rtt_r = ping_once(sim_r, *rest_r[1:])["rtt"]
        assert rtt_e > rtt_r + 30.0  # kernel crossings dominate

    def test_emulated_consumes_no_ni_resources(self):
        """§3.5: emulated endpoints consume no additional NI resources:
        only the kernel's single real endpoint is attached."""
        sim, cluster, sa, sb, ch_a, ch_b = build()
        ni = cluster.hosts["alice"].ni
        assert len(ni.endpoints) == 1  # just the kernel's multiplexing endpoint
        assert ni.endpoints[0].owner == "<kernel>"

    def test_emulated_not_counted_against_endpoint_limit(self):
        sim = Simulator()
        cluster = UNetCluster.pair(
            sim, limits=ResourceLimits(max_endpoints=1, max_pinned_bytes=10**7)
        )
        agent = cluster.agent("alice")
        # the kernel's real endpoint takes the single regular slot...
        for _ in range(3):
            agent.create_endpoint("p", emulated=True)
        # ...and three emulated endpoints were still created
        assert sum(1 for e in agent.endpoints if e.emulated) == 3


class TestEmulatedLifecycle:
    def test_destroy_emulated_endpoint(self):
        sim, cluster, sa, sb, ch_a, ch_b = build()
        agent = cluster.agent("alice")
        cluster.directory.disconnect(ch_a, "pa")
        agent.destroy_endpoint(sa.endpoint, "pa")
        assert sa.endpoint.destroyed
        assert sa.endpoint not in agent.endpoints

    def test_disconnect_unregisters_real_tag(self):
        sim, cluster, sa, sb, ch_a, ch_b = build()
        mux_a = cluster.hosts["alice"].ni.mux
        assert ch_a.rx_vci in mux_a
        cluster.directory.disconnect(ch_a, "pa")
        assert ch_a.rx_vci not in mux_a
        assert not ch_a.open
        assert not ch_b.open

    def test_destroy_during_the_kernel_crossing(self):
        """bob's endpoint is destroyed after the kernel popped a message
        for it and before the copy into its segment finished: the
        message counts as unmatched, its kernel buffer goes back on the
        free queue, and the receive service goes on serving bob's other
        emulated endpoints."""
        sim, cluster, sa, sb, ch_a, ch_b = build()
        kernel = cluster.agent("bob").emulation
        stocked = len(kernel.real.free_queue)

        def provide():
            yield from sb.provide_receive_buffers(4)

        sim.process(provide())
        sim.run()

        def send(session, channel, size):
            def sender():
                yield from session.send_copy(channel, bytes(size))

            sim.process(sender())

        send(sa, ch_a.ident, 1000)
        sim.run(until=182.5)
        # Popped by the kernel, not yet copied into bob's segment.
        assert cluster.host("bob").ni.pdus_received == 1
        assert len(kernel.real.recv_queue) == 0 and kernel.forwarded_in == 0
        cluster.agent("bob").destroy_endpoint(sb.endpoint, "pb")
        sim.run(until=sim.now + 1e4)
        assert kernel.unmatched == 1 and kernel.forwarded_in == 0
        assert len(kernel.real.free_queue) == stocked

        sa2 = cluster.open_session("alice", "pa2", emulated=True)
        sb2 = cluster.open_session("bob", "pb2", emulated=True)
        ch_a2, _ = cluster.connect_sessions(sa2, sb2)
        got = {}

        def receiver():
            yield from sb2.provide_receive_buffers(4)
            desc = yield from sb2.recv()
            got["data"] = yield from sb2.recv_payload(desc)

        proc = sim.process(receiver())
        sim.run(until=sim.now + 100.0)
        send(sa2, ch_a2.ident, 1000)
        sim.run(until=sim.now + 1e4)
        assert not proc.is_alive
        assert got["data"] == bytes(1000)
