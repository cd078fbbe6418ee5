"""End-to-end message transfer through the full simulated stack.

These are integration tests: bytes leave one process's communication
segment, become AAL5 cells on a fiber, pass the switch, and land in the
peer's segment (or inline descriptor).
"""

import pytest

from repro.core import SINGLE_CELL_MAX, SendDescriptor, UNetCluster
from repro.sim import Simulator

from tests.core.conftest import run


def send_and_recv(size, ni_kind="sba200"):
    sim = Simulator()
    cluster = UNetCluster.pair(sim, ni_kind=ni_kind)
    sa = cluster.open_session("alice", "pa", segment_size=256 * 1024)
    sb = cluster.open_session("bob", "pb", segment_size=256 * 1024)
    ch_a, ch_b = cluster.connect_sessions(sa, sb)
    payload = bytes(i % 251 for i in range(size))
    out = {}

    def sender():
        yield from sa.send_copy(ch_a.ident, payload)

    def receiver():
        yield from sb.provide_receive_buffers(8)
        desc = yield from sb.recv()
        out["data"] = yield from sb.recv_payload(desc)
        out["channel"] = desc.channel

    run(sim, sender(), receiver())
    return payload, out, ch_b


class TestDataIntegrity:
    @pytest.mark.parametrize("size", [0, 1, 39, 40, 41, 48, 100, 4159, 4160, 4161, 9000])
    def test_payload_roundtrip_sba200(self, size):
        payload, out, ch_b = send_and_recv(size)
        assert out["data"] == payload
        assert out["channel"] == ch_b.ident

    @pytest.mark.parametrize("size", [0, 40, 41, 1024])
    def test_payload_roundtrip_sba100(self, size):
        payload, out, _ = send_and_recv(size, ni_kind="sba100")
        assert out["data"] == payload

    @pytest.mark.parametrize("size", [0, 40, 1024])
    def test_payload_roundtrip_fore(self, size):
        payload, out, _ = send_and_recv(size, ni_kind="fore")
        assert out["data"] == payload

    def test_small_message_arrives_inline(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair

        def sender():
            yield from sa.send(SendDescriptor(channel=ch_a.ident, inline=b"tiny"))

        out = {}

        def receiver():
            desc = yield from sb.recv()
            out["desc"] = desc

        run(sim, sender(), receiver())
        assert out["desc"].is_inline
        assert out["desc"].inline == b"tiny"

    def test_large_message_uses_free_buffers(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair

        def sender():
            yield from sa.send_copy(ch_a.ident, bytes(5000))

        out = {}

        def receiver():
            yield from sb.provide_receive_buffers(4, size=4160)
            desc = yield from sb.recv()
            out["desc"] = desc

        run(sim, sender(), receiver())
        desc = out["desc"]
        assert not desc.is_inline
        assert len(desc.bufs) == 2  # 5000 bytes across 4160-byte buffers
        assert desc.length == 5000


class TestOrdering:
    def test_messages_arrive_in_order(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        got = []

        def sender():
            for i in range(20):
                yield from sa.send(
                    SendDescriptor(channel=ch_a.ident, inline=bytes([i]))
                )

        def receiver():
            for _ in range(20):
                desc = yield from sb.recv()
                got.append(desc.inline[0])

        run(sim, sender(), receiver())
        assert got == list(range(20))

    def test_interleaved_sizes_keep_order(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        sizes = [8, 2000, 16, 500, 40, 4100]
        got = []

        def sender():
            for i, size in enumerate(sizes):
                yield from sa.send_copy(ch_a.ident, bytes([i]) * size)

        def receiver():
            yield from sb.provide_receive_buffers(12)
            for _ in sizes:
                desc = yield from sb.recv()
                data = yield from sb.recv_payload(desc)
                got.append((len(data), data[:1]))
                if not desc.is_inline:
                    yield from sb.repost_free(desc)

        run(sim, sender(), receiver())
        assert got == [(s, bytes([i])) for i, s in enumerate(sizes)]


class TestResourceExhaustion:
    # Each exhaustion test runs on a regular endpoint (the NI scatters
    # and delivers) and on an emulated one (the kernel does, §3.5).
    @staticmethod
    def pairs(**receiver_rings):
        for emulated in (False, True):
            sim = Simulator()
            cluster = UNetCluster.pair(sim)
            sa = cluster.open_session("alice", "pa", emulated=emulated)
            sb = cluster.open_session(
                "bob", "pb", emulated=emulated, **receiver_rings
            )
            ch_a, _ch_b = cluster.connect_sessions(sa, sb)
            yield sim, sa, sb, ch_a

    def test_no_free_buffers_drops_large_message(self):
        for sim, sa, sb, ch_a in self.pairs():

            def sender():
                yield from sa.send_copy(ch_a.ident, bytes(1000))  # needs a buffer
                yield from sa.send(SendDescriptor(channel=ch_a.ident, inline=b"ok"))

            out = {}

            def receiver():
                # no free buffers provided: the 1000-byte message must drop,
                # the inline message still arrives
                desc = yield from sb.recv()
                out["desc"] = desc

            run(sim, sender(), receiver())
            assert out["desc"].inline == b"ok"
            assert sb.endpoint.no_buffer_drops == 1

    def test_recv_ring_overflow_drops(self):
        for sim, sa, sb, ch_a in self.pairs(recv_ring=2):

            def sender():
                for i in range(6):
                    yield from sa.send(
                        SendDescriptor(channel=ch_a.ident, inline=bytes([i]))
                    )

            run(sim, sender())
            sim.run(until=1e9)
            # receiver never drained: ring holds 2, rest dropped
            assert sb.endpoint.receive_drops == 4

    def test_injected_flag_set(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        desc = SendDescriptor(channel=ch_a.ident, inline=b"x")

        def sender():
            yield from sa.send(desc)
            yield sa.endpoint.wait_send_complete(desc)

        run(sim, sender())
        assert desc.injected


class TestCounters:
    def test_message_counters(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair

        def sender():
            for _ in range(3):
                yield from sa.send(SendDescriptor(channel=ch_a.ident, inline=b"m"))

        def receiver():
            for _ in range(3):
                yield from sb.recv()

        run(sim, sender(), receiver())
        assert sa.endpoint.messages_sent == 3
        assert sb.endpoint.messages_received == 3
        ni = cluster.hosts["alice"].ni
        assert ni.pdus_sent == 3
