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
from repro.atm.aal5 import segment_pdu
from repro.atm.network import AtmNetwork
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
