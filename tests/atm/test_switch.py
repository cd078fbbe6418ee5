"""Switch routing, VCI translation, and contention tests."""

import pytest

from repro.atm.cell import Cell
from repro.atm.switch import Switch
from repro.sim import Simulator


def make_cell(vci, seq=0):
    return Cell(vci=vci, payload=bytes(48), seq=seq)


class TestRouting:
    def test_route_and_translate(self):
        sim = Simulator()
        sw = Switch(sim, n_ports=4)
        sw.add_route(0, 100, 2, 200)
        got = []
        sw.output_links[2].connect(lambda c: got.append(c))
        for p in (0, 1, 3):
            if p != 2:
                sw.output_links[p].connect(lambda c: got.append(("wrong", c)))
        sw.input_sink(0)(make_cell(100))
        sim.run()
        assert len(got) == 1
        assert got[0].vci == 200

    def test_unrouted_cell_counted(self):
        sim = Simulator()
        sw = Switch(sim, n_ports=2)
        for p in range(2):
            sw.output_links[p].connect(lambda c: None)
        sw.input_sink(0)(make_cell(999))
        sim.run()
        assert sw.cells_unrouted == 1
        assert sw.cells_switched == 0

    def test_same_vci_different_ports_independent(self):
        sim = Simulator()
        sw = Switch(sim, n_ports=3)
        sw.add_route(0, 50, 1, 60)
        sw.add_route(1, 50, 2, 70)
        got = {1: [], 2: []}
        sw.output_links[1].connect(lambda c: got[1].append(c.vci))
        sw.output_links[2].connect(lambda c: got[2].append(c.vci))
        sw.output_links[0].connect(lambda c: None)
        sw.input_sink(0)(make_cell(50))
        sw.input_sink(1)(make_cell(50))
        sim.run()
        assert got[1] == [60]
        assert got[2] == [70]

    def test_duplicate_route_rejected(self):
        sim = Simulator()
        sw = Switch(sim, n_ports=2)
        sw.add_route(0, 1, 1, 2)
        with pytest.raises(ValueError):
            sw.add_route(0, 1, 1, 3)

    def test_remove_route(self):
        sim = Simulator()
        sw = Switch(sim, n_ports=2)
        sw.add_route(0, 1, 1, 2)
        assert sw.has_route(0, 1)
        sw.remove_route(0, 1)
        assert not sw.has_route(0, 1)

    def test_port_validation(self):
        sim = Simulator()
        sw = Switch(sim, n_ports=2)
        with pytest.raises(ValueError):
            sw.add_route(0, 1, 5, 2)
        with pytest.raises(ValueError):
            sw.input_sink(9)
        with pytest.raises(ValueError):
            Switch(sim, n_ports=0)


class TestContention:
    def test_output_contention_serializes(self):
        """Two inputs feeding one output share its serialization."""
        sim = Simulator()
        sw = Switch(sim, n_ports=3, switching_latency_us=0.0, propagation_us=0.0)
        sw.add_route(0, 10, 2, 10)
        sw.add_route(1, 11, 2, 11)
        arrivals = []
        sw.output_links[2].connect(lambda c: arrivals.append(sim.now))
        for p in (0, 1):
            sw.output_links[p].connect(lambda c: None)
        sw.input_sink(0)(make_cell(10))
        sw.input_sink(1)(make_cell(11))
        sim.run()
        cell_us = 53 * 8 / 140e6 * 1e6
        assert arrivals[0] == pytest.approx(cell_us)
        assert arrivals[1] == pytest.approx(2 * cell_us)

    def test_output_queue_overflow_drops(self):
        sim = Simulator()
        sw = Switch(
            sim, n_ports=2, output_queue_cells=4, switching_latency_us=0.0
        )
        sw.output_links[1].connect(lambda c: None)
        sw.output_links[0].connect(lambda c: None)
        sw.add_route(0, 1, 1, 1)
        for _ in range(50):
            sw.input_sink(0)(make_cell(1))
        sim.run()
        assert sw.output_links[1].cells_dropped > 0

    def test_switching_latency_applied(self):
        sim = Simulator()
        sw = Switch(sim, n_ports=2, switching_latency_us=10.0, propagation_us=0.0)
        sw.add_route(0, 1, 1, 1)
        arrivals = []
        sw.output_links[1].connect(lambda c: arrivals.append(sim.now))
        sw.output_links[0].connect(lambda c: None)
        sw.input_sink(0)(make_cell(1))
        sim.run()
        cell_us = 53 * 8 / 140e6 * 1e6
        assert arrivals == [pytest.approx(10.0 + cell_us)]


class TestCrossbarTiming:
    """Exact timings against the two-hop model: a cell received at ``t``
    leaves the crossbar at ``t + switching_latency_us`` and claims the
    output link then, in the order the cells were received."""

    CELL_US = 53 * 8 / 140e6 * 1e6

    def _switch(self, sim, queue_cells=256):
        sw = Switch(
            sim,
            n_ports=3,
            switching_latency_us=2.0,
            output_queue_cells=queue_cells,
            propagation_us=0.3,
        )
        sw.add_route(0, 10, 2, 20)
        sw.add_route(1, 11, 2, 21)
        got = []
        sw.output_links[2].connect(lambda c: got.append((sim.now, c.vci)))
        for p in (0, 1):
            sw.output_links[p].connect(lambda c: got.append(("wrong", c)))
        return sw, got

    def test_two_inputs_one_output_full_queue(self):
        sim = Simulator()
        sw, got = self._switch(sim, queue_cells=2)
        in0, in1 = sw.input_sink(0), sw.input_sink(1)
        at = sim.schedule_callback_at
        # Five same-instant arrivals, alternating input ports.
        for i, (sink, vci) in enumerate(
            [(in0, 10), (in1, 11), (in0, 10), (in1, 11), (in0, 10)]
        ):
            at(0.0, sink, make_cell(vci, seq=i))
        # One later arrival, exiting after the first cell has finished.
        at(self.CELL_US + 0.5, in1, make_cell(11, seq=5))
        sim.run()
        # All five exit at 2.0 in arrival order.  The first starts at
        # once and is in service; the next two fill the 2-cell queue; the
        # last two overflow.  The late cell exits at CELL_US + 2.5, when
        # the first has started serializing, so it fits.
        c = self.CELL_US
        f1 = 2.0 + c
        f2 = f1 + c
        f3 = f2 + c
        f4 = f3 + c
        assert got == [
            (f1 + 0.3, 20),
            (f2 + 0.3, 21),
            (f3 + 0.3, 20),
            (f4 + 0.3, 21),
        ]
        assert sw.output_links[2].cells_dropped == 2
        assert sw.cells_switched == 6
        assert sw.cells_unrouted == 0

    def test_route_removed_after_arrival_still_forwards(self):
        sim = Simulator()
        sw, got = self._switch(sim)
        sim.schedule_callback_at(0.0, sw.input_sink(0), make_cell(10))
        # Torn down while the first cell is inside the crossbar.
        sim.schedule_callback_at(1.0, sw.remove_route, 0, 10)
        sim.schedule_callback_at(1.5, sw.input_sink(0), make_cell(10))
        sim.run()
        assert got == [(2.0 + self.CELL_US + 0.3, 20)]
        assert sw.cells_switched == 1
        assert sw.cells_unrouted == 1
