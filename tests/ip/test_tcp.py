"""TCP engine tests over the user-level U-Net stack."""

import contextlib

import pytest

from repro.bench.ip import build_unet_pair
from repro.ip.headers import FLAG_RST, TcpSegment
from repro.ip.tcp import TcpConfig

from tests.sim.monitors import fifo_monitored


def run(sim, *gens, until=1e9):
    procs = [sim.process(g) for g in gens]
    sim.run(until=sim.now + until)  # relative: the sim may have run before
    return procs


def connect_pair(config=None):
    sim, cluster, sa, sb = build_unet_pair()
    server = sb.tcp_listen(7000, peer_addr=1, config=config)
    holder = {}

    def connector():
        holder["client"] = yield from sa.tcp_connect(2, 7000, config=config)

    run(sim, connector(), until=1e6)
    assert "client" in holder, "handshake did not complete"
    return sim, cluster, holder["client"], server


class TestHandshake:
    def test_three_way_establishes_both_sides(self):
        sim, cluster, client, server = connect_pair()
        assert client.state == "ESTABLISHED"
        assert server.state == "ESTABLISHED"

    def test_connect_twice_rejected(self):
        sim, cluster, client, server = connect_pair()

        def bad():
            with pytest.raises(RuntimeError):
                yield from client.connect()

        run(sim, bad())


class TestDataTransfer:
    @pytest.mark.parametrize("size", [1, 100, 2048, 10_000, 60_000])
    def test_one_way_integrity(self, size):
        sim, cluster, client, server = connect_pair()
        data = bytes((i * 17) % 256 for i in range(size))
        got = {}

        def sender():
            yield from client.send(data)

        def receiver():
            buf = b""
            while len(buf) < size:
                chunk = yield from server.recv(1 << 20)
                buf += chunk
            got["data"] = buf

        run(sim, sender(), receiver())
        assert got["data"] == data

    def test_bidirectional_transfer(self):
        sim, cluster, client, server = connect_pair()
        a2b = bytes(range(256)) * 40
        b2a = bytes(reversed(range(256))) * 30
        got = {}

        def side(conn, out, n_in, key):
            def proc():
                yield from conn.send(out)
                buf = b""
                while len(buf) < n_in:
                    buf += yield from conn.recv(1 << 20)
                got[key] = buf
            return proc()

        run(sim, side(client, a2b, len(b2a), "client"),
            side(server, b2a, len(a2b), "server"))
        assert got["server"] == a2b
        assert got["client"] == b2a

    def test_small_writes_coalesce_into_mss_segments(self):
        sim, cluster, client, server = connect_pair()
        got = {}

        def sender():
            for _ in range(64):
                yield from client.send(bytes(256))

        def receiver():
            buf = b""
            while len(buf) < 64 * 256:
                buf += yield from server.recv(1 << 20)
            got["n"] = len(buf)

        run(sim, sender(), receiver())
        assert got["n"] == 64 * 256
        # 16 KB in >=2048-byte segments: far fewer data segments than writes
        assert client.segments_sent < 64

    def test_recv_max_bytes_respected(self):
        sim, cluster, client, server = connect_pair()
        got = {}

        def sender():
            yield from client.send(bytes(1000))

        def receiver():
            chunk = yield from server.recv(100)
            got["len"] = len(chunk)

        run(sim, sender(), receiver())
        assert got["len"] == 100


class TestCloseSemantics:
    def test_fin_delivers_eof(self):
        sim, cluster, client, server = connect_pair()
        got = {}

        def sender():
            yield from client.send(b"bye")
            client.close()

        def receiver():
            data = yield from server.recv()
            got["data"] = data
            eof = yield from server.recv()
            got["eof"] = eof

        run(sim, sender(), receiver())
        assert got["data"] == b"bye"
        assert got["eof"] == b""


class TestFlowControl:
    def test_receiver_window_bounds_flight(self):
        """The sender never has more unacked data than the window."""
        config = TcpConfig(window=4096)
        sim, cluster, client, server = connect_pair(config)
        max_flight = {"n": 0}
        data = bytes(40_000)
        got = {}

        def sender():
            orig = client._emit

            def spy(flags, seq, payload=b""):
                # snd_nxt is advanced before _emit runs
                max_flight["n"] = max(
                    max_flight["n"], client.snd_nxt - client.snd_una
                )
                return orig(flags, seq, payload)

            client._emit = spy
            yield from client.send(data)

        def receiver():
            buf = b""
            while len(buf) < len(data):
                buf += yield from server.recv(1 << 20)
            got["ok"] = buf == data

        run(sim, sender(), receiver())
        assert got["ok"]
        assert max_flight["n"] <= 4096

    def test_slow_reader_throttles_sender(self):
        """§7.4: the advertised window reflects application buffer
        space; a slow application stalls the peer instead of losing data."""
        config = TcpConfig(window=4096)
        sim, cluster, client, server = connect_pair(config)
        data = bytes(i % 256 for i in range(30_000))
        got = {}

        def sender():
            yield from client.send(data)

        def slow_receiver():
            buf = b""
            while len(buf) < len(data):
                chunk = yield from server.recv(2048)
                buf += chunk
                yield sim.timeout(2000.0)  # dawdle
            got["data"] = buf

        run(sim, sender(), slow_receiver(), until=1e10)
        assert got["data"] == data
        assert server.dropped_out_of_order == 0


class TestReliability:
    def _lossy_pair(self, drop_cells):
        sim, cluster, sa, sb = build_unet_pair()
        counter = {"n": 0}

        def loss(cell):
            counter["n"] += 1
            return counter["n"] in drop_cells

        cluster.hosts["alice"].ni.port.tx_link.loss_fn = loss
        config = TcpConfig(window=8192)
        server = sb.tcp_listen(7000, peer_addr=1, config=config)
        holder = {}

        def connector():
            holder["client"] = yield from sa.tcp_connect(2, 7000, config=config)

        run(sim, connector())
        return sim, holder["client"], server

    def test_lost_segment_retransmitted(self):
        # drop a burst mid-stream: whole segments vanish (AAL5 CRC)
        sim, client, server = self._lossy_pair(set(range(100, 150)))
        data = bytes(i % 251 for i in range(40_000))
        got = {}

        def sender():
            yield from client.send(data)

        def receiver():
            buf = b""
            while len(buf) < len(data):
                buf += yield from server.recv(1 << 20)
            got["data"] = buf

        run(sim, sender(), receiver(), until=1e9)
        assert got["data"] == data
        assert client.retransmits > 0
        assert client.timeouts > 0

    def test_congestion_window_collapses_on_loss(self):
        sim, client, server = self._lossy_pair(set(range(100, 150)))
        data = bytes(40_000)
        got = {}
        observed = {"cwnd_after_loss": None}

        def sender():
            pre_loss_cwnd = client.cwnd
            yield from client.send(data)

        def receiver():
            buf = b""
            while len(buf) < len(data):
                buf += yield from server.recv(1 << 20)
            got["done"] = True

        run(sim, sender(), receiver(), until=1e9)
        assert got.get("done")
        # multiplicative decrease happened: ssthresh came down from 64K
        assert client.ssthresh < 64 * 1024


class TestTimers:
    def test_rto_respects_granularity(self):
        """§7.8: the BSD 500 ms timer makes the rto enormous relative to
        LAN round trips; U-Net's 1 ms timer keeps it proportionate."""
        fine = connect_pair(TcpConfig(timer_granularity_us=1000.0))
        coarse = connect_pair(TcpConfig(timer_granularity_us=500_000.0))
        for (sim, cluster, client, server), minimum in (
            (fine, 1000.0), (coarse, 500_000.0)
        ):
            assert client.rto_us >= 2 * minimum
            assert client.rto_us % minimum == 0

    # The protocol timer is a plain callback: disarming it leaves the
    # entry scheduled, and the entry returns at once unless its arm
    # count is current.  Each test runs on the calendar core and on the
    # monitored heap.

    @pytest.fixture(params=["calendar", "heap"])
    def core(self, request):
        context = fifo_monitored if request.param == "heap" else contextlib.nullcontext
        with context():
            yield request.param

    @staticmethod
    def _arm(conn, delay):
        conn._retx_deadline = conn.sim.now + delay
        conn._wake_timer()

    def test_rearm_on_a_disarmed_fire_time_expires_once(self, core):
        """A disarmed entry and its replacement share one fire time; the
        expiry runs once, from the replacement.  A fire-time token would
        take the disarmed entry (the earlier one) for the live one."""
        sim, cluster, client, server = connect_pair()
        g = client.cfg.timer_granularity_us
        assert client._retx_deadline is None and client._timer_when is None
        self._arm(client, 2 * g)
        fire = client._timer_when
        client._retx_deadline = None
        client._wake_timer()
        assert client._timer_when is None
        # runs between the two entries at `fire`
        firing = []
        sim.schedule_callback_at(fire, lambda: firing.append(client._timer_firing))
        self._arm(client, 2 * g)
        assert client._timer_when == fire
        run(sim, until=10 * g)
        assert firing == [False]
        assert client.timeouts == 1

    def test_reset_connection_runs_no_expiry(self, core):
        sim, cluster, client, server = connect_pair()
        g = client.cfg.timer_granularity_us
        self._arm(client, 2 * g)
        sent = client.segments_sent
        rst = TcpSegment(
            src_port=client.dst_port, dst_port=client.src_port,
            seq=client.rcv_nxt, ack=0, flags=FLAG_RST, window=0,
        )
        run(sim, client.handle(rst), until=10 * g)
        assert client.state == "CLOSED"
        assert client.timeouts == 0
        assert client.segments_sent == sent

    def test_closed_listener_runs_no_expiry(self, core):
        sim, cluster, sa, sb = build_unet_pair()
        listener = sb.tcp_listen(7000, peer_addr=1)
        g = listener.cfg.timer_granularity_us
        self._arm(listener, 2 * g)
        fire = listener._timer_when
        listener.close()
        sim.run()
        # the disarmed entry still popped at its fire time
        assert sim.now == fire
        assert listener.timeouts == 0
        assert listener.segments_sent == 0
