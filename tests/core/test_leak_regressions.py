"""Error-path segment-buffer leaks in the core send paths.

Each test injects a failure into a send path mid-flight and asserts
the transient buffer is returned to the segment allocator instead of
leaking.  The descriptor-protocol conformance machine
(``tests/core/test_stateful.py``) drives the same ``send_copy`` error
paths, an injected write failure and a send on a closed channel or a
destroyed endpoint, on every NI kind.
"""

import pytest

from repro.core import UNetCluster
from repro.sim import Simulator


def build(emulated=False):
    sim = Simulator()
    cluster = UNetCluster.pair(sim)
    sa = cluster.open_session("alice", "pa", emulated=emulated)
    sb = cluster.open_session("bob", "pb", emulated=emulated)
    ch_a, ch_b = cluster.connect_sessions(sa, sb)
    return sim, cluster, sa, sb, ch_a, ch_b


class TestSendCopyErrorPath:
    def test_failed_write_frees_the_transient_buffer(self):
        sim, cluster, sa, sb, ch_a, ch_b = build()
        segment = sa.endpoint.segment
        before = segment.live_allocations

        def boom(offset, data):
            raise RuntimeError("injected write failure")

        sa.write_segment = boom
        done = []

        def sender():
            with pytest.raises(RuntimeError, match="injected"):
                yield from sa.send_copy(ch_a.ident, bytes(4096))
            done.append(True)

        sim.process(sender())
        sim.run(until=1e6)
        assert done == [True]
        assert segment.live_allocations == before

    def test_successful_send_still_frees(self):
        sim, cluster, sa, sb, ch_a, ch_b = build()
        segment = sa.endpoint.segment
        before = segment.live_allocations

        def pump():
            yield from sb.provide_receive_buffers(4)
            yield from sa.send_copy(ch_a.ident, bytes(4096))

        sim.process(pump())
        sim.run(until=1e6)
        assert segment.live_allocations == before


class TestEmulatedForwardErrorPath:
    def test_failed_forward_frees_the_kernel_bounce_buffer(self):
        sim, cluster, sa, sb, ch_a, ch_b = build(emulated=True)
        emu = cluster.agents["alice"].emulation
        real_segment = emu.real.segment
        before = real_segment.live_allocations

        original_write = real_segment.write

        def boom(offset, data):
            raise RuntimeError("injected kernel copy failure")

        real_segment.write = boom

        def sender():
            yield from sa.send_copy(ch_a.ident, bytes(4096))

        sim.process(sender())
        with pytest.raises(RuntimeError, match="injected"):
            sim.run(until=1e6)
        real_segment.write = original_write
        assert real_segment.live_allocations == before
