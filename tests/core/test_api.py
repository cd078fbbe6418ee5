"""UNetSession convenience-layer behaviour."""

import pytest

from repro.core import ProtectionError, SendDescriptor, UNetCluster
from repro.core.errors import QueueFullError, SegmentRangeError
from repro.sim import Simulator

from tests.core.conftest import run


class TestSendCopy:
    def test_small_goes_inline(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        out = {}

        def sender():
            desc = yield from sa.send_copy(ch_a.ident, b"tiny")
            out["desc"] = desc

        run(sim, sender())
        assert out["desc"].inline == b"tiny"

    def test_large_transient_buffer_freed(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        free_before = sa.endpoint.segment.free_bytes

        def sender():
            yield from sb.provide_receive_buffers(4)
            yield from sa.send_copy(ch_a.ident, bytes(3000))

        run(sim, sender())
        sim.run(until=1e9)
        assert sa.endpoint.segment.free_bytes == free_before

    def test_explicit_tx_offset_not_freed(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        out = {}

        def sender():
            yield from sb.provide_receive_buffers(4)
            offset = sa.alloc(3000)
            out["offset"] = offset
            yield from sa.send_copy(ch_a.ident, bytes(3000), tx_offset=offset)
            # caller-managed buffer: still allocated, reusable
            sa.endpoint.segment.check_range(offset, 3000)

        run(sim, sender())


class TestPeekVsRead:
    def test_peek_charges_no_copy_time(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        host_b = cluster.hosts["bob"]
        out = {}

        def sender():
            yield from sb.provide_receive_buffers(4)
            yield from sa.send_copy(ch_a.ident, bytes(2000))

        def receiver():
            desc = yield from sb.recv()
            busy = host_b.cpu.busy_us
            data = sb.peek_payload(desc)  # §3.4 true zero copy
            out["peek_cost"] = host_b.cpu.busy_us - busy
            out["len"] = len(data)

        run(sim, sender(), receiver())
        assert out["peek_cost"] == 0.0
        assert out["len"] == 2000

    def test_recv_payload_charges_copy(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        host_b = cluster.hosts["bob"]
        out = {}

        def sender():
            yield from sb.provide_receive_buffers(4)
            yield from sa.send_copy(ch_a.ident, bytes(2000))

        def receiver():
            desc = yield from sb.recv()
            busy = host_b.cpu.busy_us
            yield from sb.recv_payload(desc)
            out["copy_cost"] = host_b.cpu.busy_us - busy

        run(sim, sender(), receiver())
        assert out["copy_cost"] >= 2000 * host_b.costs.copy_us_per_byte


class TestBufferProvisioning:
    def test_free_queue_overflow_raises(self, sim):
        cluster = UNetCluster.pair(sim)
        sa = cluster.open_session("alice", "pa", free_ring=4, segment_size=256 * 1024)

        def provider():
            with pytest.raises(QueueFullError):
                yield from sa.provide_receive_buffers(5, size=4160)

        run(sim, provider())

    def test_segment_exhaustion_raises(self, sim):
        cluster = UNetCluster.pair(sim)
        sa = cluster.open_session("alice", "pa", segment_size=16 * 1024)

        def provider():
            with pytest.raises(SegmentRangeError):
                yield from sa.provide_receive_buffers(8, size=4160)

        run(sim, provider())

    def test_inline_descriptor_size_cap(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        with pytest.raises(ValueError):
            sa.make_descriptor(ch_a.ident, data=bytes(41))


class TestRepostFree:
    def test_each_buffer_goes_back_at_its_own_size(self, pair, sim):
        """Buffers provided at two sizes are reposted at their own
        sizes, not at the size of the last provide call."""
        cluster, sa, sb, ch_a, ch_b = pair
        out = {}

        def flow():
            (small,) = yield from sb.provide_receive_buffers(1, size=1024)
            (large,) = yield from sb.provide_receive_buffers(1, size=4160)
            out["buffers"] = small, large
            yield from sa.send_copy(ch_a.ident, bytes(1000))
            desc = yield from sb.recv()
            assert desc.bufs == ((small, 1000),)
            yield from sb.repost_free(desc)

        run(sim, flow())
        small, large = out["buffers"]
        free = sb.endpoint.free_queue.drain()
        assert [(fd.offset, fd.length) for fd in free] == [
            (large, 4160),
            (small, 1024),
        ]


class TestSessionOwnership:
    def test_session_constructor_checks_owner(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        from repro.core import UNetSession

        with pytest.raises(ProtectionError):
            UNetSession(cluster.hosts["alice"], sa.endpoint, "someone-else")


class TestClusterBuilders:
    def test_paper_testbed_is_eight_mixed_nodes(self):
        sim = Simulator()
        cluster = UNetCluster.paper_testbed(sim)
        assert len(cluster.hosts) == 8
        clocks = sorted(h.mhz for h in cluster.hosts.values())
        assert clocks == [50.0] * 3 + [60.0] * 5

    def test_unknown_ni_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown NI kind"):
            UNetCluster.pair(Simulator(), ni_kind="quantum")

    def test_back_pressure_send_resumes(self, sim):
        """session.send waits out a full send ring instead of failing."""
        cluster = UNetCluster.pair(sim)
        sa = cluster.open_session("alice", "pa", send_ring=2)
        sb = cluster.open_session("bob", "pb")
        ch_a, ch_b = cluster.connect_sessions(sa, sb)
        sent = {"n": 0}

        def sender():
            for i in range(20):
                yield from sa.send(SendDescriptor(channel=ch_a.ident, inline=bytes([i])))
                sent["n"] += 1

        def receiver():
            for _ in range(20):
                yield from sb.recv()

        run(sim, sender(), receiver())
        assert sent["n"] == 20
