"""Byte-backed cell trains: an AAL5 PDU in flight as its CPCS bytes.

A :class:`CellTrain` carries one PDU's CPCS bytes and the indices of
the cells it still carries; a :class:`Cell` is built only where a
per-cell path needs one.  These tests pin the cells a train builds to
the ones segmentation builds, and runs of a train pushed into
reassembly to the same cells pushed one by one.  That the claimed path
builds no cell at all is pinned in ``test_fastpath_ab.py``
(``TestEntryCounts``).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atm.aal5 import (
    AAL5_MAX_PDU,
    Reassembler,
    cells_for_pdu,
    cpcs_encode,
    segment_pdu,
)
from repro.atm.cell import MAX_VCI
from repro.atm.link import TAXI_140_BPS, CellTrain, Link
from repro.atm.network import AtmNetwork
from repro.atm.switch import Switch
from repro.sim import Simulator


def _fields(cell):
    return (cell.vci, cell.payload, cell.last, cell.seq)


@given(
    size=st.integers(0, AAL5_MAX_PDU),
    seed=st.integers(0, 2**32 - 1),
    vci=st.integers(0, MAX_VCI),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_train_cells_equal_segmentation(size, seed, vci, data):
    """Every cell a train builds, with or without cells dropped, is the
    cell segmentation builds; a run's bytes are its cells' payloads."""
    payload = random.Random(seed).randbytes(size)
    cells = segment_pdu(payload, vci)
    n = len(cells)
    dropped = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
    indices = [j for j in range(n) if j not in dropped] or [n - 1]
    train = CellTrain(vci, cpcs_encode(payload), indices, [0.0] * len(indices))
    assert len(train) == len(indices)
    for i, j in enumerate(indices):
        assert _fields(train.cell(i)) == _fields(cells[j])
    first = data.draw(st.integers(0, len(indices) - 1))
    stop = data.draw(st.integers(first + 1, len(indices)))
    assert train.chunk(first, stop) == b"".join(
        cells[j].payload for j in indices[first:stop]
    )
    assert train.ends_pdu(stop) == cells[indices[stop - 1]].last


@pytest.mark.parametrize("size", [0, 40, 41, 4000, AAL5_MAX_PDU])
@pytest.mark.parametrize("path", ["host_link", "switch_claim", "switch_cells"])
def test_per_cell_paths_deliver_segmentation(size, path):
    """Cells built from a train on each per-cell path: a host link off
    its fast path, a claimed train to a receiver that is not
    train-aware, and a train the switch receives cell by cell (its
    output has a second feeder)."""
    sim = Simulator()
    net = AtmNetwork(sim, n_ports=3)
    pa = net.attach("a")
    pb = net.attach("b")
    net.attach("c")
    pair = net.open_virtual_circuit("a", "b")
    if path == "host_link":
        pa.tx_link.fast_path = False
    elif path == "switch_cells":
        net.open_virtual_circuit("c", "b")
    got = []
    pb.set_rx_sink(got.append)
    payload = random.Random(size).randbytes(size)

    def producer():
        yield pa.tx_link.put_train(pair.tx, cpcs_encode(payload))

    sim.process(producer())
    sim.run()
    assert [_fields(c) for c in got] == [
        _fields(c) for c in segment_pdu(payload, pair.tx)
    ]


def test_put_train_checks_the_vci():
    link = Link(Simulator())
    with pytest.raises(ValueError):
        link.put_train(MAX_VCI + 1, cpcs_encode(b"x"))


# -- runs of a train pushed into reassembly ----------------------------------


def _feed(trains, cuts, max_cells, runs):
    """Push every train into one reassembler, cell by cell or as the
    runs between ``cuts``; returns everything the pushes returned, the
    reassembler's counters and the bytes it still holds."""
    asm = Reassembler(max_cells=max_cells)
    out = []
    for train, bounds in zip(trains, cuts):
        if runs:
            for first, stop in zip(bounds, bounds[1:]):
                out.append(
                    asm.push_run(
                        train.vci, train.chunk(first, stop), train.ends_pdu(stop)
                    )
                )
        else:
            out.extend(asm.push(train.cell(i)) for i in range(len(train)))
    out = [pdu for pdu in out if pdu is not None]
    return (
        out,
        asm.completed_pdus,
        asm.crc_errors,
        asm.overflows,
        asm.pending_cells(trains[0].vci),
        b"".join(asm._partial[trains[0].vci].chunks),
    )


@st.composite
def _trains(draw):
    """PDUs of one VCI, each as a train that may have lost cells, and
    the run boundaries each is cut into."""
    trains, cuts = [], []
    for _ in range(draw(st.integers(1, 5))):
        payload = bytes(draw(st.integers(0, 600)))
        n = cells_for_pdu(len(payload))
        dropped = draw(st.sets(st.integers(0, n - 1), max_size=2))
        indices = [j for j in range(n) if j not in dropped]
        if not indices:
            continue
        trains.append(
            CellTrain(5, cpcs_encode(payload), indices, [0.0] * len(indices))
        )
        inner = draw(st.sets(st.integers(1, max(1, len(indices) - 1)), max_size=4))
        cuts.append(sorted({0, *inner, len(indices)}))
    return trains, cuts


@given(_trains(), st.integers(2, 12))
@settings(max_examples=150, deadline=None)
def test_runs_reassemble_as_cells(trains_and_cuts, max_cells):
    """Trains that lost cells, cut into runs, into a reassembler small
    enough to overflow."""
    trains, cuts = trains_and_cuts
    if not trains:
        return
    assert _feed(trains, cuts, max_cells, True) == _feed(trains, cuts, max_cells, False)


def test_run_reaches_max_cells():
    """A 9-cell run into a reassembler that holds 4: the 5th cell
    overflows, the rest start a new partial, as cell by cell."""
    train = CellTrain(5, cpcs_encode(bytes(400)), range(9), [0.0] * 9)
    for cuts in ([0, 9], [0, 3, 9], [0, 4, 5, 9], [0, 8, 9]):
        runs = _feed([train], [cuts], 4, True)
        assert runs == _feed([train], [cuts], 4, False)
        # The last four cells end the PDU too short: a CRC error.
        assert runs == ([], 0, 1, 1, 0, b"")


def test_train_with_a_cell_dropped_by_the_output_queue():
    """A slow switch output with an 8-cell queue drops middle cells of
    a claimed train (every sixth from cell 49 on); the train the
    receiver gets carries the surviving indices, and its runs, one of
    them across the gaps, reassemble (and fail the CRC) exactly as its
    cells do."""
    sim = Simulator()
    switch = Switch(
        sim, 2, bandwidth_bps=TAXI_140_BPS / 1.2, output_queue_cells=8
    )
    host = Link(sim, name="h0.tx")
    host.connect(switch.input_sink(0), switch.input_train_sink(0))
    switch.add_route(0, 40, 1, 41)
    trains = []
    switch.output_links[1].connect(lambda cell: None, trains.append)

    def producer():
        yield host.put_train(40, cpcs_encode(bytes(4000)))

    sim.process(producer())
    sim.run()
    (train,) = trains
    indices = list(train.indices)
    assert train.vci == 41 and indices[:50] == list(range(49)) + [50]
    assert indices[-1] == 83 and len(indices) == 78
    cuts = [0, 40, 60, len(indices)]
    runs = _feed([train], [cuts], 4096, True)
    assert runs == _feed([train], [cuts], 4096, False)
    assert runs == ([], 0, 1, 0, 0, b"")
