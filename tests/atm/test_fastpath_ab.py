"""A/B equivalence: cell-train fast path vs. per-cell simulation.

The analytic fast path in :mod:`repro.atm.link` must be *bit-identical*
to the per-cell path it replaces — same delivery timestamps, same cell
ordering, same sender completion times — or every figure in the paper
reproduction silently shifts.  These tests pin that equivalence at the
link level, through the switch, into the receiving NI's i960 loop, and
end-to-end through the benchmark harness.

One known exception: a switch output on its fast path gives a cell's
delivery entry its seq at the crossbar claim, one off it at the
serialization end.  An NI step scheduled in between for exactly the
arrival float therefore runs after the delivery on the fast path and
before it off the fast path; with a full input FIFO that changes which
cell is dropped (``test_fifo_full_tie_off_the_fast_path``).  For such
ties the reference is per-cell reception from fast-path links.
"""

import random
import weakref
from math import inf, nextafter

import pytest

import repro.atm.aal5 as aal5mod
import repro.atm.link as linkmod
import repro.atm.switch as switchmod
from repro.atm.aal5 import Reassembler, cells_for_pdu, cpcs_encode, segment_pdu
from repro.atm.cell import Cell
from repro.atm.link import TAXI_140_BPS, Link
from repro.atm.network import AtmNetwork
from repro.atm.switch import Switch
from repro.core import SendDescriptor, UNetCluster
from repro.core.errors import UNetError
from repro.core.ni.base import NetworkInterface
from repro.core.ni.costs import ForeCosts, Sba200Costs
from repro.core.ni.sba200 import Sba200UNet
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
        yield pa.tx_link.put_train(pair.tx, cpcs_encode(payload))
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
            yield port.tx_link.put_train(vci, cpcs_encode(bytes(2000)))

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
                yield self.tx[port].put_train(vci, cpcs_encode(bytes(nbytes)))

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


@pytest.fixture
def cells_built(monkeypatch):
    """Counts every Cell built: by its constructor, by ``with_vci``, or
    from a CPCS by ``cpcs_cell`` (wherever it is imported)."""
    built = []
    init = Cell.__init__
    with_vci = Cell.with_vci
    cpcs_cell = aal5mod.cpcs_cell

    def counting_init(self, *args, **kwargs):
        built.append("init")
        init(self, *args, **kwargs)

    def counting_with_vci(self, vci):
        built.append("with_vci")
        return with_vci(self, vci)

    def counting_cpcs_cell(*args):
        built.append("cpcs_cell")
        return cpcs_cell(*args)

    monkeypatch.setattr(Cell, "__init__", counting_init)
    monkeypatch.setattr(Cell, "with_vci", counting_with_vci)
    for module in (aal5mod, linkmod, switchmod):
        monkeypatch.setattr(module, "cpcs_cell", counting_cpcs_cell)
    return built


def _one_pdu(nbytes):
    """alice sends one PDU to bob's idle SBA-200; returns the number of
    entries scheduled for it."""
    sim = Simulator()
    cluster = UNetCluster.pair(sim)
    sa = cluster.open_session("alice", "pa")
    sb = cluster.open_session("bob", "pb")
    ch_a, _ = cluster.connect_sessions(sa, sb)

    def setup():
        yield from sb.provide_receive_buffers(1)
        offset = sa.alloc(nbytes)
        yield from sa.write_segment(offset, bytes(nbytes))
        return offset

    proc = sim.process(setup())
    sim.run()
    before = sim.stats()["schedules"]
    desc = SendDescriptor(channel=ch_a.ident, bufs=((proc.value, nbytes),))
    assert sa.endpoint.post_send(desc, "pa")
    sim.run()
    assert sb.endpoint.messages_received == 1
    return sim.stats()["schedules"] - before


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

    def test_one_pdu_to_an_idle_sba200(self, cells_built):
        """One 4000-byte PDU, 84 cells, from alice's send ring into bob's
        receive queue.  Received cell by cell it took 173 entries: 84
        deliveries and 84 i960 holds at bob, and 5 more (alice's send
        ring wake-up, her i960 hold, her train into the switch, its
        admission to her transmit queue, and bob's PDU hold).  As one
        train it takes 7: its delivery and its last cell's hold end
        replace the 168.  The train carries the PDU's CPCS bytes, so no
        Cell is built on the way."""
        assert _one_pdu(4000) == 7
        assert cells_built == []

    def test_a_one_cell_pdu_builds_its_cell(self, cells_built):
        """A single-cell frame keeps the per-cell path: its cell is
        built once on alice's link and relabelled once at the switch."""
        _one_pdu(32)
        assert cells_built == ["cpcs_cell", "with_vci"]

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


# -- the receiving NI takes whole trains --------------------------------------


@pytest.fixture
def ni_log(monkeypatch):
    """Every PDU delivery step of every SBA-200-family NI, the cells
    (by ``seq``) of every PDU that reached reassembly, whether pushed
    one by one or as a run of a train, and the trains the receive loop
    ran analytically or handed back."""
    log = {"deliveries": [], "pdus": [], "runs": 0, "settles": 0}
    # Per reassembler and VCI: the seqs of the cells it holds.
    held = weakref.WeakKeyDictionary()
    push = Reassembler.push
    push_run = Sba200UNet._rx_push_run
    deliver = Sba200UNet._rx_deliver
    start = Sba200UNet._rx_start
    settle = Sba200UNet._rx_settle

    def pushing(asm, vci, seqs, last, do_push):
        by_vci = held.setdefault(asm, {})
        seqs = by_vci.get(vci, []) + seqs
        if last:
            log["pdus"].append(seqs)
        pdu = do_push()
        n = asm.pending_cells(vci)
        by_vci[vci] = seqs[len(seqs) - n :] if n else []
        return pdu

    def recording_push(self, cell):
        return pushing(
            self, cell.vci, [cell.seq], cell.last, lambda: push(self, cell)
        )

    def recording_push_run(self, train, first, stop):
        return pushing(
            self.reassembler,
            train.vci,
            list(train.indices[first:stop]),
            train.ends_pdu(stop),
            lambda: push_run(self, train, first, stop),
        )

    def recording_deliver(self, *args):
        before = self.pdus_received
        deliver(self, *args)
        log["deliveries"].append(
            (self.name, self.sim.now.hex(), self.pdus_received - before)
        )

    def counting_start(self, *args):
        log["runs"] += 1
        start(self, *args)

    def counting_settle(self, **kwargs):
        if self._rx_running is not None or self._rx_pending:
            log["settles"] += 1
        settle(self, **kwargs)

    monkeypatch.setattr(Reassembler, "push", recording_push)
    monkeypatch.setattr(Sba200UNet, "_rx_push_run", recording_push_run)
    monkeypatch.setattr(Sba200UNet, "_rx_deliver", recording_deliver)
    monkeypatch.setattr(Sba200UNet, "_rx_start", counting_start)
    monkeypatch.setattr(Sba200UNet, "_rx_settle", counting_settle)
    return log


class _NiRig:
    """alice sends 4000-byte frames to bob through one switch whose
    output links are on or off their fast path."""

    def __init__(
        self,
        fast_output,
        kind="sba200",
        costs=None,
        hosts=("alice", "bob"),
        together=False,
    ):
        self.sim = sim = Simulator()
        self.cluster = cluster = UNetCluster(
            sim, [(name, 60.0) for name in hosts], ni_kind=kind, ni_costs=costs
        )
        for link in cluster.network.switch.output_links:
            link.fast_path = fast_output
        self.sa = cluster.open_session("alice", "pa")
        self.sb = cluster.open_session("bob", "pb")
        self.ch_a, self.ch_b = cluster.connect_sessions(self.sa, self.sb)

        def provide(sessions):
            for session in sessions:
                yield from session.provide_receive_buffers(8)

        # Both sides' buffers one after the other, or (``together``)
        # at once.
        groups = [[self.sa], [self.sb]] if together else [[self.sa, self.sb]]
        for sessions in groups:
            sim.process(provide(sessions))
        sim.run()

    def send(self, frames=1, nbytes=4000):
        def sender():
            for _ in range(frames):
                yield from self.sa.send_copy(self.ch_a.ident, bytes(nbytes))

        self.sim.process(sender())

    # Actions taken between two runs, at an exact instant.
    def bob_sends(self):
        """bob's transmit firmware asks for the i960 at this instant:
        the descriptor goes straight onto the send ring."""
        desc = SendDescriptor(channel=self.ch_b.ident, inline=b"ack")
        assert self.sb.endpoint.post_send(desc, "pb")

    def remove_route(self):
        port = self.cluster.network.port("alice").index
        self.cluster.network.switch.remove_route(port, self.ch_a.tx_vci)

    def disconnect(self):
        self.cluster.directory.disconnect(self.ch_a, "pa")

    def destroy(self):
        """Destroying bob's endpoint closes alice's half and the circuit."""
        self.cluster.agent("bob").destroy_endpoint(self.sb.endpoint, "pb")

    def record(self):
        nis = []
        for name in ("alice", "bob"):
            ni = self.cluster.host(name).ni
            asm = ni.reassembler
            nis.append(
                (
                    ni.pdus_received,
                    ni.input_fifo_drops,
                    asm.completed_pdus,
                    asm.crc_errors,
                    sorted(
                        (vci, partial.cells, b"".join(partial.chunks))
                        for vci, partial in asm._partial.items()
                    ),
                    ni.i960.in_use,
                    ni.i960.queued,
                )
            )
        switch = self.cluster.network.switch
        return nis, switch.cells_switched, switch.cells_unrouted


def _bob_timeline(kind="sba200", costs=None, frames=1):
    """bob's per-cell arrival and hold-end floats, from a run with the
    output links off their fast path."""
    arrivals, hold_ends = [], []
    rig = _NiRig(False, kind, costs)
    ni = rig.cluster.host("bob").ni
    sink = ni._rx_sink
    rig.cluster.network.port("bob").set_rx_sink(
        lambda cell: (arrivals.append(rig.sim.now), sink(cell))
    )
    reassemble = Sba200UNet._rx_reassemble

    def timed(self, *args):
        if self is ni:
            hold_ends.append(self.sim.now)
        reassemble(self, *args)

    Sba200UNet._rx_reassemble = timed
    try:
        rig.send(frames)
        rig.sim.run()
    finally:
        Sba200UNet._rx_reassemble = reassemble
    return arrivals, hold_ends


class TestNiTrains:
    """bob's SBA-200 running claimed trains analytically (output links
    on the fast path) against per-cell reception (off it)."""

    def _ab(self, ni_log, scenario, settled=False, ran=True):
        results = []
        for fast in (True, False):
            ni_log.update(deliveries=[], pdus=[], runs=0, settles=0)
            record = scenario(fast)
            results.append((ni_log["deliveries"], ni_log["pdus"], record))
            if fast:
                assert bool(ni_log["runs"]) == ran
                assert bool(ni_log["settles"]) == settled
            else:
                assert not ni_log["runs"] and not ni_log["settles"]
        fast, slow = results
        assert fast == slow
        deliveries, _, record = fast
        return deliveries, record

    @pytest.mark.parametrize(
        "kind, costs",
        [
            ("sba200", None),
            ("fore", None),
            ("direct", None),
            ("fore", ForeCosts(input_fifo_cells=8)),
        ],
        ids=["sba200", "fore", "direct", "fore-small-fifo"],
    )
    def test_back_to_back_frames(self, ni_log, kind, costs):
        def scenario(fast):
            rig = _NiRig(fast, kind, costs)
            rig.send(frames=3)
            rig.sim.run()
            return rig.record(), rig.sim.now.hex()

        # A cell that would find the small FIFO full ends the run and
        # hands the train back.
        deliveries, ((nis, *_), _) = self._ab(
            ni_log, scenario, settled=costs is not None
        )
        (_, bob) = nis
        if costs is None:
            assert len(deliveries) == bob[0] == 3
        else:
            # The 8-cell FIFO overflows mid-train: every frame loses cells.
            assert bob[1] > 0 and bob[0] == 0 and bob[3] == 3

    @pytest.mark.parametrize("kind", ["sba200", "fore"])
    @pytest.mark.parametrize("when", ["mid", "on_arrival", "on_hold_end"])
    def test_receiver_sends_mid_train(self, ni_log, kind, when):
        arrivals, hold_ends = _bob_timeline(kind)
        k = len(arrivals) // 2
        at = {
            "mid": (arrivals[k] + arrivals[k + 1]) / 2,
            "on_arrival": arrivals[k],
            "on_hold_end": hold_ends[k],
        }[when]

        def scenario(fast):
            rig = _NiRig(fast, kind)
            rig.send()
            rig.sim.run(until=at)
            rig.bob_sends()
            rig.sim.run()
            return rig.record(), rig.sim.now.hex()

        deliveries, ((nis, *_), _) = self._ab(ni_log, scenario, settled=True)
        assert sorted(n for n, _, _ in deliveries) == ["alice.ni", "bob.ni"]
        assert nis[0][0] == nis[1][0] == 1

    def test_receiver_sends_before_a_predicted_drop(self, ni_log):
        """A 4 us/cell i960 behind a 10-cell FIFO: the run stops before
        the first cell that would find the FIFO full, and bob sends
        before that cell arrives.  The settled run's cells and the
        rest of the train, which has its own offer, are each received
        once."""
        costs = Sba200Costs(input_fifo_cells=10, i960_rx_per_cell_us=4.0)
        arrivals, _ = _bob_timeline(costs=costs)
        at = (arrivals[12] + arrivals[13]) / 2

        def scenario(fast):
            rig = _NiRig(fast, costs=costs)
            rig.send(frames=2)
            rig.sim.run(until=at)
            rig.bob_sends()
            rig.sim.run()
            return rig.record(), rig.sim.now.hex()

        deliveries, ((nis, *_), _) = self._ab(ni_log, scenario, settled=True)
        (_, bob) = nis
        # FIFO drops cost the first frame its last cell, so both frames
        # fail reassembly as one runaway PDU.
        assert bob[1] > 0 and bob[3] == 1 and not bob[0]

    @pytest.mark.parametrize("when", ["before", "mid", "on_arrival"])
    @pytest.mark.parametrize("action", ["remove_route", "disconnect", "destroy"])
    def test_circuit_closed_mid_train(self, ni_log, when, action):
        arrivals, _ = _bob_timeline()
        k = len(arrivals) // 2
        at = {
            # The first cell is on the wire but not yet at the switch
            # (2 us switching plus 3.3 us to bob).
            "before": arrivals[0] - 6.0,
            "mid": (arrivals[k] + arrivals[k + 1]) / 2,
            "on_arrival": arrivals[k],
        }[when]

        def scenario(fast):
            rig = _NiRig(fast)
            rig.send()
            rig.sim.run(until=at)
            getattr(rig, action)()
            rig.sim.run()
            # No final sim.now: the settled run's last-hold entry still
            # fires, after the last cell that stood.
            return rig.record()

        deliveries, (nis, switched, unrouted) = self._ab(
            ni_log, scenario, settled=when != "before", ran=when != "before"
        )
        assert not deliveries and nis[1][0] == 0
        assert unrouted > 0

    def test_lone_cell_on_a_hold_end(self, ni_log):
        """bob's i960 is backlogged behind a train (3.59 us/cell) and
        its FIFO is just deep enough for it.  A lone cell from carol's
        port reaches bob exactly when the cell in its hold at the
        train's last arrival ends that hold, with the FIFO full.  Per
        cell, the switch scheduled that delivery at its crossbar claim,
        before the hold began, so it runs first and is dropped: the
        settle on that arrival must count the cell as still in its hold.

        The reference is bob's NI taking every cell one by one from the
        same fast-path links.  Off the fast path the delivery entry is
        made at the serialization end, after the hold began, so that
        per-cell run drops no cell here."""
        hold = 3.59
        arrivals, hold_ends = _bob_timeline(
            costs=Sba200Costs(i960_rx_per_cell_us=hold)
        )
        held = max(i for i, end in enumerate(hold_ends) if end - hold <= arrivals[-1])
        depth = len(arrivals) - 1 - held
        target = hold_ends[held]
        costs = Sba200Costs(i960_rx_per_cell_us=hold, input_fifo_cells=depth)

        def scenario(trains):
            rig = _NiRig(True, costs=costs, hosts=("alice", "bob", "carol"))
            net = rig.cluster.network
            switch = net.switch
            bob, carol = net.port("bob"), net.port("carol").index
            link = switch.output_links[bob.index]
            ni = rig.cluster.host("bob").ni
            vci = net.allocate_vci()
            lone = []

            def sink(cell):
                if cell.vci == vci:
                    lone.append(rig.sim.now)
                ni._rx_sink(cell)

            bob.set_rx_sink(sink, ni._rx_train_sink if trains else None)
            def lands(at):
                """Arrival at bob of a cell entering the switch at ``at``
                onto an idle output: crossbar, serialization, flight."""
                return (
                    at + switch.switching_latency_us + link._cell_us
                ) + link.propagation_us

            at = target - lands(0.0)
            for _ in range(4):
                at = nextafter(at, -inf)
            while lands(at) < target:
                at = nextafter(at, inf)

            def carol_sends():
                # alice's train has reached the switch whole, so the new
                # feeder withdraws none of its claims.
                switch.add_route(carol, vci, bob.index, vci)
                switch.input_sink(carol)(segment_pdu(b"x", vci)[0])

            rig.send()
            rig.sim.schedule_callback_at(at, carol_sends)
            rig.sim.run()
            assert lone == [target]
            return rig.record(), rig.sim.now.hex()

        _, ((nis, *_), _) = self._ab(ni_log, scenario, settled=True)
        (_, bob) = nis
        assert bob[0] == 1 and bob[1] == 1

    def test_fifo_full_tie_off_the_fast_path(self, ni_log, monkeypatch):
        """Where ``fast_path=False`` is not an exact oracle.  A Fore
        pair with an 8-cell input FIFO: alice sends 3,654 and then 5,392
        bytes from t=290 us while bob posts inline sends.  At
        596.968 us an i960 hold at bob ends exactly on a cell's arrival
        float, with the FIFO full.  On a fast-path switch output the
        delivery entry was made at the crossbar claim, before the hold
        began, so it runs first and cell 35 is dropped; off the fast
        path it is made at the serialization end, after the hold began,
        so the hold end pops the FIFO first and cell 36 is dropped at
        its own arrival.  The reference for bob's trains is therefore
        per-cell reception from the same fast-path links, as in
        :meth:`test_lone_cell_on_a_hold_end`."""
        drops = []
        rx_sink = NetworkInterface._rx_sink

        def recording_rx_sink(self, cell):
            before = self.input_fifo_drops
            rx_sink(self, cell)
            if self.input_fifo_drops > before:
                drops.append((self.name, round(self.sim.now, 3), cell.seq))

        monkeypatch.setattr(NetworkInterface, "_rx_sink", recording_rx_sink)

        def scenario(trains, fast_output=True):
            drops.clear()
            rig = _NiRig(
                fast_output, "fore", ForeCosts(input_fifo_cells=8), together=True
            )
            sim = rig.sim
            ni = rig.cluster.host("bob").ni
            rig.cluster.network.port("bob").set_rx_sink(
                ni._rx_sink, ni._rx_train_sink if trains else None
            )

            def alice():
                yield sim.timeout(278.0850560645151)
                yield from rig.sa.send_copy(rig.ch_a.ident, bytes(3654))
                yield sim.timeout(0.0)
                yield from rig.sa.send_copy(rig.ch_a.ident, bytes(5392))

            sim.process(alice())
            for at in (
                155.24657764819062,
                502.13581516257676,
                602.0658379219914,
                1366.1604808344907,
            ):
                sim.run(until=at)
                rig.bob_sends()
            sim.run()
            return list(drops), rig.record(), sim.now.hex()

        _, (fast_drops, *_) = self._ab(ni_log, scenario, settled=True)
        assert ("bob.ni", 596.968, 35) in fast_drops
        slow_drops, *_ = scenario(True, fast_output=False)
        assert ("bob.ni", 596.968, 35) not in slow_drops
        assert ("bob.ni", 599.997, 36) in slow_drops
        assert [d for d in fast_drops if d[2] != 35] == [
            d for d in slow_drops if d[2] != 36
        ]

    def test_run_stops_mid_train_and_resumes(self, ni_log):
        arrivals, hold_ends = _bob_timeline("fore", frames=2)
        stops = [arrivals[5], hold_ends[9], (arrivals[-3] + arrivals[-2]) / 2]

        def scenario(fast):
            rig = _NiRig(fast, "fore")
            rig.send(frames=2)
            bob = rig.cluster.host("bob").ni
            seen = []
            for at in stops:
                rig.sim.run(until=at)
                seen.append((bob.pdus_received, rig.sb.endpoint.messages_received))
            rig.sim.run()
            return seen, rig.record(), rig.sim.now.hex()

        deliveries, (seen, *_) = self._ab(ni_log, scenario)
        assert len(deliveries) == 2
        assert seen == [(0, 0), (0, 0), (1, 1)]


def _random_traffic(seed, fast_output):
    """One seeded mix on a random SBA-200-family pair: frames of random
    sizes both ways, bob's inline sends straight onto his ring at
    random instants, and maybe one route removal, disconnect or
    destroy."""
    rnd = random.Random(seed)
    kind = rnd.choice(["sba200", "fore", "direct"])
    if kind == "fore":
        costs = ForeCosts(input_fifo_cells=rnd.choice([8, 20, 60, 292]))
    else:
        costs = Sba200Costs(
            input_fifo_cells=rnd.choice([10, 40, 292]),
            i960_rx_per_cell_us=rnd.choice([0.5, 2.9, 3.1, 4.0]),
        )
    rig = _NiRig(fast_output, kind, costs)
    sim = rig.sim

    def sender(session, channel, sizes, gaps):
        for size, gap in zip(sizes, gaps):
            yield sim.timeout(gap)
            try:
                yield from session.send_copy(channel.ident, bytes(size))
            except UNetError:
                return  # the channel closed or the endpoint went

    n = rnd.randint(1, 6)
    sizes = [rnd.randint(1, 6000) for _ in range(n)]
    gaps = [rnd.choice([0.0, 0.0, rnd.uniform(0, 300)]) for _ in range(n)]
    sim.process(sender(rig.sa, rig.ch_a, sizes, gaps))
    m = rnd.randint(0, 4)
    sizes = [rnd.randint(1, 3000) for _ in range(m)]
    gaps = [rnd.uniform(0, 400) for _ in range(m)]
    sim.process(sender(rig.sb, rig.ch_b, sizes, gaps))
    sends = sorted(rnd.uniform(0, 2000) for _ in range(rnd.randint(0, 4)))
    action = rnd.choice([None, None, "remove_route", "disconnect", "destroy"])
    at = rnd.uniform(0, 2000)
    for when, step in sorted([(t, "bob_sends") for t in sends] + [(at, action)]):
        sim.run(until=max(when, sim.now))
        if step == "bob_sends":
            if rig.ch_b.open:
                rig.bob_sends()
        elif step is not None:
            getattr(rig, step)()
    sim.run(until=sim.now + 1e5)
    return rig.record(), [
        session.endpoint.messages_received for session in (rig.sa, rig.sb)
    ]


@pytest.mark.parametrize("seed", range(60))
def test_random_traffic(ni_log, seed):
    """Seeded mixes with the switch's output links on and off their
    fast path: every delivery float, every PDU's cells and every
    counter must agree."""
    results = []
    for fast in (True, False):
        ni_log.update(deliveries=[], pdus=[])
        record = _random_traffic(seed, fast)
        results.append((ni_log["deliveries"], ni_log["pdus"], record))
    assert results[0] == results[1]
