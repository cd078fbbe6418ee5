"""A/B equivalence: cell-train fast path vs. per-cell simulation.

The analytic fast path in :mod:`repro.atm.link` must be *bit-identical*
to the per-cell path it replaces — same delivery timestamps, same cell
ordering, same sender completion times — or every figure in the paper
reproduction silently shifts.  These tests pin that equivalence at the
link level, through the switch, and end-to-end through the benchmark
harness.
"""

import pytest

import repro.atm.link as linkmod
from repro.atm.aal5 import cells_for_pdu, segment_pdu
from repro.atm.cell import Cell
from repro.atm.link import TAXI_140_BPS, Link
from repro.atm.network import AtmNetwork
from repro.atm.switch import Switch
from repro.core import UNetCluster
from repro.sim import Simulator


def _run_frame(fast_path, payload=bytes(4000)):
    """Push one AAL5 frame a->b; return (deliveries, done_time, link)."""
    sim = Simulator()
    net = AtmNetwork(sim, n_ports=2)
    pa = net.attach("a")
    pb = net.attach("b")
    pair = net.open_virtual_circuit("a", "b")
    pa.tx_link.fast_path = fast_path

    got = []
    pb.set_rx_sink(lambda cell: got.append((sim.now, cell.vci, cell.seq)))

    def producer():
        yield pa.tx_link.put_train(segment_pdu(payload, pair.tx))
        return sim.now

    p = sim.process(producer())
    sim.run()
    return got, p.value, pa.tx_link


class TestLinkLevelEquivalence:
    def test_delivery_timestamps_bit_identical(self):
        fast, fast_done, fast_link = _run_frame(True)
        slow, slow_done, slow_link = _run_frame(False)
        assert len(fast) == len(slow) > 1
        # Exact float equality, not approx: the fast path computes the
        # same absolute finish times the per-cell path would.
        assert fast == slow
        assert fast_done == slow_done
        # The fast path really was exercised: whole trains, not cells.
        assert fast_link.trains_sent == 1
        assert slow_link.trains_sent == 0
        assert fast_link.cells_sent == slow_link.cells_sent

    def test_every_cell_delivered_both_paths(self):
        payload = bytes(range(256)) * 8
        expected = len(segment_pdu(payload, 42))
        for fast_path in (True, False):
            got, _, _ = _run_frame(fast_path, payload)
            assert len(got) == expected

    def test_single_cell_frame_never_trains(self):
        # A one-cell PDU takes the per-cell path even with fast_path on.
        got, _, link = _run_frame(True, payload=b"x")
        assert len(got) == 1
        assert link.trains_sent == 0


class TestContendingTrains:
    def _contend(self, fast_path):
        """Two hosts blast frames at the same destination port."""
        sim = Simulator()
        net = AtmNetwork(sim, n_ports=3)
        pa = net.attach("a")
        pb = net.attach("b")
        pc = net.attach("c")
        pair_ac = net.open_virtual_circuit("a", "c")
        pair_bc = net.open_virtual_circuit("b", "c")
        pa.tx_link.fast_path = fast_path
        pb.tx_link.fast_path = fast_path

        got = []
        pc.set_rx_sink(lambda cell: got.append((sim.now, cell.vci, cell.seq)))

        def blast(port, vci):
            yield port.tx_link.put_train(segment_pdu(bytes(2000), vci))

        sim.process(blast(pa, pair_ac.tx))
        sim.process(blast(pb, pair_bc.tx))
        sim.run()
        return got

    def test_interleaving_at_contended_port_identical(self):
        assert self._contend(True) == self._contend(False)


class TestEndToEndEquivalence:
    @pytest.fixture
    def _flip_links(self, monkeypatch):
        """Set ``fast_path`` on every link the benchmark builds."""
        init = linkmod.Link.__init__

        def flip(value):
            def build(self, *args, **kwargs):
                init(self, *args, **kwargs)
                self.fast_path = value

            monkeypatch.setattr(linkmod.Link, "__init__", build)

        return flip

    def test_raw_rtt_identical(self, _flip_links):
        from repro.bench import raw_rtt

        _flip_links(True)
        fast = raw_rtt(1024, n=4).mean_us
        _flip_links(False)
        slow = raw_rtt(1024, n=4).mean_us
        assert fast == slow

    def test_raw_bandwidth_identical(self, _flip_links):
        from repro.bench import raw_bandwidth

        _flip_links(True)
        fast = raw_bandwidth(2048).bytes_per_second
        _flip_links(False)
        slow = raw_bandwidth(2048).bytes_per_second
        assert fast == slow


class _Rig:
    """Hosts on fast-path TX links into one switch; records every cell
    each output port delivers, and the arrival floats of every train
    the switch receives."""

    def __init__(
        self, fast_output, n_ports=3, out_bps=TAXI_140_BPS, queue_cells=256
    ):
        self.sim = sim = Simulator()
        self.switch = switch = Switch(
            sim, n_ports, bandwidth_bps=out_bps, output_queue_cells=queue_cells
        )
        self.got = []
        self.arrivals = []
        self.tx = []
        for port in range(n_ports):
            link = Link(sim, name=f"h{port}.tx")
            link.connect(
                switch.input_sink(port), train_sink=self._spy(port)
            )
            self.tx.append(link)
            out = switch.output_links[port]
            out.fast_path = fast_output
            out.connect(
                lambda cell, port=port: self.got.append(
                    (port, sim.now.hex(), cell.vci, cell.seq)
                )
            )

    def _spy(self, port):
        sink = self.switch.input_train_sink(port)

        def spy(train):
            self.arrivals.append(train.arrivals_us)
            sink(train)

        return spy

    def send(self, port, vci, nbytes=4000, frames=1):
        def producer():
            for _ in range(frames):
                yield self.tx[port].put_train(segment_pdu(bytes(nbytes), vci))

        self.sim.process(producer())

    def record(self, out=1):
        switch = self.switch
        link = switch.output_links[out]
        return (
            [(when, vci, seq) for port, when, vci, seq in self.got if port == out],
            switch.cells_switched,
            switch.cells_unrouted,
            link.cells_sent,
            link.bytes_sent,
            link.cells_dropped,
            link._busy_until.hex(),
        )


def _train_arrivals():
    """Switch arrival floats of one 4000-byte frame from port 0."""
    rig = _Rig(True)
    rig.switch.add_route(0, 40, 1, 41)
    rig.send(0, 40)
    rig.sim.run()
    (arrivals,) = rig.arrivals
    return arrivals


@pytest.fixture
def claims(monkeypatch):
    """Counts the trains the switch claims at their first arrival."""
    calls = []
    claim = Switch._claim_train

    def counting(self, *args):
        calls.append(args[0])
        claim(self, *args)

    monkeypatch.setattr(Switch, "_claim_train", counting)
    return calls


class TestSwitchedTrains:
    """A switched train claimed at its first arrival (output links on
    the fast path) against per-cell forwarding (output links off it)."""

    def _ab(self, claims, scenario, claimed=True):
        claims.clear()
        fast = scenario(True)
        assert bool(claims) == claimed
        claims.clear()
        slow = scenario(False)
        assert not claims
        assert fast == slow
        return fast

    def test_frame_then_second_frame(self, claims):
        def scenario(fast_output):
            rig = _Rig(fast_output)
            rig.switch.add_route(0, 40, 1, 41)
            rig.send(0, 40, frames=2)
            rig.sim.run()
            return rig.record()

        got, switched, unrouted, *_ = self._ab(claims, scenario)
        assert len(got) == switched == 2 * cells_for_pdu(4000)
        assert unrouted == 0

    @pytest.mark.parametrize(
        "when",
        ["before", "mid", "at_arrival", "after"],
    )
    def test_route_removed(self, claims, when):
        arrivals = _train_arrivals()
        k = len(arrivals) // 2
        at = {
            "before": arrivals[0] / 2,
            "mid": (arrivals[k] + arrivals[k + 1]) / 2,
            "at_arrival": arrivals[k],
            "after": arrivals[-1] + 1.0,
        }[when]

        def scenario(fast_output):
            rig = _Rig(fast_output)
            rig.switch.add_route(0, 40, 1, 41)
            rig.send(0, 40)
            rig.sim.run(until=at)
            rig.switch.remove_route(0, 40)
            rig.sim.run()
            return rig.record()

        got, switched, unrouted, *_ = self._ab(
            claims, scenario, claimed=when != "before"
        )
        assert switched + unrouted == len(arrivals)
        expected = {"before": 0, "mid": k + 1, "at_arrival": k + 1}
        assert switched == expected.get(when, len(arrivals))
        assert len(got) == switched

    def test_removed_and_readded_mid_train(self, claims):
        arrivals = _train_arrivals()
        k = len(arrivals) // 2

        def scenario(fast_output):
            rig = _Rig(fast_output)
            rig.switch.add_route(0, 40, 1, 41)
            rig.send(0, 40)
            rig.sim.run(until=(arrivals[k] + arrivals[k + 1]) / 2)
            rig.switch.remove_route(0, 40)
            rig.sim.run(until=(arrivals[k + 3] + arrivals[k + 4]) / 2)
            rig.switch.add_route(0, 40, 2, 42)
            rig.sim.run()
            return rig.record(), rig.record(out=2)

        (to_b, *_), (to_c, switched, unrouted, *_) = self._ab(claims, scenario)
        assert len(to_b) == k + 1
        assert unrouted == 3
        assert len(to_c) == len(arrivals) - k - 4 == switched - len(to_b)

    def test_second_feeder_added_mid_train(self, claims):
        arrivals = _train_arrivals()
        k = len(arrivals) // 3

        def scenario(fast_output):
            rig = _Rig(fast_output)
            rig.switch.add_route(0, 40, 1, 41)
            rig.send(0, 40)
            rig.sim.run(until=(arrivals[k] + arrivals[k + 1]) / 2)
            rig.switch.add_route(2, 50, 1, 51)
            rig.send(2, 50, nbytes=2000)
            rig.sim.run()
            return rig.record()

        got, switched, unrouted, *_ = self._ab(claims, scenario)
        n = len(arrivals) + cells_for_pdu(2000)
        assert len(got) == switched == n and unrouted == 0
        # The two frames really did interleave at the output.
        vcis = [vci for _, vci, _ in got]
        assert vcis != sorted(vcis)

    def test_output_queue_drops_part_of_train(self, claims):
        def scenario(fast_output):
            rig = _Rig(fast_output, out_bps=TAXI_140_BPS / 3, queue_cells=4)
            rig.switch.add_route(0, 40, 1, 41)
            rig.send(0, 40)
            rig.sim.run()
            return rig.record()

        got, switched, _, sent, _, dropped, _ = self._ab(claims, scenario)
        assert 0 < dropped < switched
        assert len(got) == sent == switched - dropped


class TestEntryCounts:
    def test_claimed_train_saves_one_entry_per_later_cell(self, claims):
        def schedules(second_feeder):
            rig = _Rig(True)
            rig.switch.add_route(0, 40, 1, 41)
            if second_feeder:
                # An idle route from port 2 to the same output forces
                # per-cell forwarding.
                rig.switch.add_route(2, 50, 1, 51)
            rig.send(0, 40)
            rig.sim.run()
            return rig.sim.stats()["schedules"], len(rig.got)

        claimed, n_claimed = schedules(False)
        assert len(claims) == 1
        per_cell, n_per_cell = schedules(True)
        assert len(claims) == 1
        n_cells = cells_for_pdu(4000)
        assert n_claimed == n_per_cell == n_cells
        assert per_cell - claimed == n_cells - 1

    def test_idle_sba200_receive_starts_its_hold_at_once(self):
        sim = Simulator()
        cluster = UNetCluster.pair(sim)
        sim.run()
        ni = cluster.host("bob").ni
        before = sim.stats()["schedules"]
        ni._rx_sink(Cell(vci=1234, payload=bytes(48), last=True))
        # One entry, the end of the per-cell i960 hold: no zero-delay
        # hop ahead of it.
        assert sim.stats()["schedules"] - before == 1
        assert ni.i960.in_use == 1
        assert sim.peek() == sim.now + ni.costs.i960_rx_per_cell_us
        sim.run()
        assert ni.i960.in_use == 0
