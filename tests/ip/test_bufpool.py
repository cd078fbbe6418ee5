"""Reference-counted segment buffers (§7.3) and their use by U-Net TCP."""

import pytest

from repro import obs
from repro.bench.ip import build_unet_pair
from repro.core.errors import UNetError
from repro.ip.bufpool import SegmentBufferPool
from repro.ip.tcp import TcpConfig


def make_pool(count=4, size=256):
    sim, _net, sa, sb = build_unet_pair()
    return sim, sa, SegmentBufferPool(sa.session, count, size)


class TestRefCounting:
    def test_acquire_gives_single_reference(self):
        sim, sa, pool = make_pool()
        buf = pool.try_acquire()
        assert buf.refs == 1
        assert pool.available == 3

    def test_release_on_last_decref(self):
        sim, sa, pool = make_pool()
        buf = pool.try_acquire()
        buf.incref()
        buf.decref()
        assert pool.available == 3  # still held
        buf.decref()
        assert pool.available == 4  # returned

    def test_shared_between_messages_without_copy(self):
        """§7.3: blocks 'shared by several messages without the need for
        copy operations' -- two references, one fill."""
        sim, sa, pool = make_pool()
        buf = pool.try_acquire()

        def fill():
            yield from buf.fill(sa.session, b"shared-data")

        sim.process(fill())
        sim.run(until=sim.now + 1e4)
        first = buf.incref()  # second message's reference
        assert first is buf
        assert buf.peek(sa.session) == b"shared-data"

    def test_exhaustion_returns_none(self):
        sim, sa, pool = make_pool(count=2)
        assert pool.try_acquire() is not None
        assert pool.try_acquire() is not None
        assert pool.try_acquire() is None
        assert pool.exhaustions == 1

    def test_overfill_rejected(self):
        sim, sa, pool = make_pool(size=16)
        buf = pool.try_acquire()

        def fill():
            with pytest.raises(UNetError, match="capacity"):
                yield from buf.fill(sa.session, bytes(17))

        p = sim.process(fill())
        sim.run(until=sim.now + 1e4)
        assert p.ok

    def test_double_decref_rejected(self):
        sim, sa, pool = make_pool()
        buf = pool.try_acquire()
        buf.decref()
        with pytest.raises(UNetError):
            buf.decref()

    def test_incref_after_release_rejected(self):
        sim, sa, pool = make_pool()
        buf = pool.try_acquire()
        buf.decref()
        with pytest.raises(UNetError):
            buf.incref()

    def test_validation(self):
        sim, sa, _ = make_pool()
        with pytest.raises(ValueError):
            SegmentBufferPool(sa.session, 0, 64)


class TestTcpZeroCopyRetransmit:
    def _lossy_transfer(self, drop_range):
        sim, _net, sa, sb = build_unet_pair()
        counter = {"n": 0}

        def loss(cell):
            counter["n"] += 1
            lo, hi = drop_range
            return lo <= counter["n"] < hi

        sa.session.host.ni.port.tx_link.loss_fn = loss
        config = TcpConfig(window=8192)
        server = sb.tcp_listen(7000, peer_addr=1, config=config)
        data = bytes(i % 256 for i in range(50_000))
        hold = {}

        def client():
            conn = yield from sa.tcp_connect(2, 7000, config=config)
            hold["conn"] = conn
            yield from conn.send(data)

        def srv():
            yield from server.wait_established()
            got = b""
            while len(got) < len(data):
                got += yield from server.recv(1 << 20)
            hold["data"] = got

        sim.process(client())
        sim.process(srv())
        sim.run(until=sim.now + 1e7)
        return hold, data

    def test_retransmissions_reuse_buffers(self):
        hold, data = self._lossy_transfer((300, 360))
        assert hold["data"] == data
        conn = hold["conn"]
        assert conn.retransmits > 0
        env = conn.env
        # every retransmission went out of the original buffer, no copy
        assert env.zero_copy_retransmits == conn.retransmits
        assert env.pool_fallbacks == 0

    def test_no_buffer_leaks(self):
        hold, data = self._lossy_transfer((300, 360))
        env = hold["conn"].env
        assert len(env._inflight) == 0
        assert env._pool.available == env._pool.total

    def test_lossless_transfer_no_leaks_either(self):
        hold, data = self._lossy_transfer((0, 0))
        assert hold["data"] == data
        env = hold["conn"].env
        assert env.zero_copy_retransmits == 0
        assert env._pool.available == env._pool.total

    def test_collector_counts_every_drop_cause_and_retransmit(self):
        # Two lost cells kill one AAL5 PDU: the link's injected loss and
        # the receiver's CRC failure reach the collector, and the fast
        # retransmit is counted there like the timer-driven ones.
        with obs.collecting() as col:
            hold, data = self._lossy_transfer((300, 302))
        assert hold["data"] == data
        conn = hold["conn"]
        assert conn.fast_retransmits == 1
        assert conn.retransmits == 19
        assert col.counters["tcp.retransmits"] == conn.retransmits
        assert col.counters["link.alice.tx.loss"] == 2
        assert col.counters["bob.ni.rx_bad_pdu"] == 1
