"""Channel/endpoint teardown paths and in-flight traffic behaviour."""

import pytest

from repro.core import ChannelError, ProtectionError, SendDescriptor, UNetCluster
from repro.core.errors import UNetError
from repro.sim import Simulator

from tests.core.conftest import run


class TestDisconnect:
    def test_traffic_stops_after_disconnect(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair

        def exchange():
            yield from sa.send(SendDescriptor(channel=ch_a.ident, inline=b"1"))
            yield from sb.recv()

        run(sim, exchange())
        cluster.directory.disconnect(ch_a, "procA")
        with pytest.raises(ProtectionError):
            sa.endpoint.post_send(
                SendDescriptor(channel=ch_a.ident, inline=b"2"), "procA"
            )

    def test_disconnect_requires_owner(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        with pytest.raises(ProtectionError):
            cluster.directory.disconnect(ch_a, "someone-else")

    def test_in_flight_cells_after_teardown_are_unrouted(self, pair, sim):
        """Cells already on the wire when the circuit closes are dropped
        at the switch, not delivered to a stale endpoint."""
        cluster, sa, sb, ch_a, ch_b = pair

        def sender():
            yield from sa.send_copy(ch_a.ident, bytes(4000))

        sim.process(sender())
        # past the compose+post (~90 us) but well before the ~260 us of
        # cell serialization completes: cells are on the wire
        sim.run(until=sim.now + 150.0)
        cluster.directory.disconnect(ch_a, "procA")
        sim.run(until=sim.now + 1e6)
        assert cluster.network.switch.cells_unrouted > 0
        assert sb.endpoint.messages_received == 0

    def test_reconnect_after_disconnect(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        cluster.directory.disconnect(ch_a, "procA")
        ch_a2, ch_b2 = cluster.connect_sessions(sa, sb)
        got = {}

        def sender():
            yield from sa.send(SendDescriptor(channel=ch_a2.ident, inline=b"again"))

        def receiver():
            desc = yield from sb.recv()
            got["data"] = desc.inline

        run(sim, sender(), receiver())
        assert got["data"] == b"again"


class TestEndpointDestroy:
    def test_destroy_closes_channels_on_both_sides(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        cluster.agent("alice").destroy_endpoint(sa.endpoint, "procA")
        assert sa.endpoint.destroyed
        assert not ch_a.open

    def test_destroy_frees_the_mux_slot(self, pair, sim):
        cluster, sa, sb, ch_a, ch_b = pair
        mux = cluster.hosts["alice"].ni.mux
        assert ch_a.rx_vci in mux
        cluster.agent("alice").destroy_endpoint(sa.endpoint, "procA")
        assert ch_a.rx_vci not in mux

    @pytest.mark.parametrize(
        "ni_kind, emulated",
        [("sba200", False), ("sba100", False), ("sba200", True)],
    )
    def test_destroy_ends_the_transmit_service(self, monkeypatch, ni_kind, emulated):
        sim = Simulator()
        cluster = UNetCluster.pair(sim, ni_kind=ni_kind)
        started = []
        spawn = Simulator.process

        def record(self, generator, name=""):
            proc = spawn(self, generator, name)
            started.append(proc)
            return proc

        monkeypatch.setattr(Simulator, "process", record)
        session = cluster.open_session("alice", "pa", emulated=emulated)
        monkeypatch.undo()
        ring = session.endpoint.send_queue
        if ni_kind == "sba200" and not emulated:
            # The SBA-200's transmit firmware is a callback state
            # machine: it waits on the send ring, and stops re-arming.
            sim.run(until=1e3)
            assert ring._nonempty_waiters
            cluster.agent("alice").destroy_endpoint(session.endpoint, "pa")
            sim.run(until=1e6)
            assert not ring._nonempty_waiters
            return
        # The send service of this endpoint: the NI's transmit loop, or
        # the kernel's forwarding loop for an emulated endpoint.
        tx_name = (
            "alice.kemu.tx" if emulated else f"alice.ni.tx.{session.endpoint.name}"
        )
        (tx,) = [p for p in started if p.name == tx_name]
        sim.run(until=1e3)
        assert tx.is_alive
        cluster.agent("alice").destroy_endpoint(session.endpoint, "pa")
        sim.run(until=1e6)
        assert not tx.is_alive


    @pytest.mark.parametrize(
        "ni_kind, emulated",
        [("sba200", False), ("sba100", False), ("sba200", True)],
    )
    def test_destroy_ends_a_blocked_receiver(self, ni_kind, emulated):
        """A process blocked in ``recv`` when its endpoint is destroyed
        fails with UNetError, as ``recv_poll`` does, instead of waiting
        for good."""
        sim = Simulator()
        cluster = UNetCluster.pair(sim, ni_kind=ni_kind)
        session = cluster.open_session("alice", "pa", emulated=emulated)
        raised = []

        def receiver():
            try:
                yield from session.recv()
            except UNetError:
                raised.append(True)

        proc = sim.process(receiver())
        sim.run(until=1e3)
        assert proc.is_alive
        cluster.agent("alice").destroy_endpoint(session.endpoint, "pa")
        sim.run(until=1e6)
        assert not proc.is_alive
        assert raised == [True]


    @pytest.mark.parametrize(
        "ni_kind, emulated",
        [("sba200", False), ("sba100", False), ("sba200", True)],
    )
    def test_destroy_closes_the_peer_half_and_the_circuit(self, ni_kind, emulated):
        """Destroying bob's endpoint closes alice's half of their
        channel and releases the circuit, so alice's next send is
        refused instead of vanishing at bob."""
        sim = Simulator()
        cluster = UNetCluster.pair(sim, ni_kind=ni_kind)
        sa = cluster.open_session("alice", "pa", emulated=emulated)
        sb = cluster.open_session("bob", "pb", emulated=emulated)
        ch_a, ch_b = cluster.connect_sessions(sa, sb)
        switch = cluster.network.switch
        port_a = cluster.network.port("alice").index
        port_b = cluster.network.port("bob").index
        assert switch.has_route(port_a, ch_a.tx_vci)
        cluster.agent("bob").destroy_endpoint(sb.endpoint, "pb")
        assert not ch_b.open and not ch_a.open
        assert not switch.has_route(port_a, ch_a.tx_vci)
        assert not switch.has_route(port_b, ch_b.tx_vci)
        with pytest.raises(ProtectionError):
            sa.endpoint.post_send(
                SendDescriptor(channel=ch_a.ident, inline=b"lost"), "pa"
            )
        # alice can still tear down her own endpoint afterwards.
        cluster.agent("alice").destroy_endpoint(sa.endpoint, "pa")
        assert sa.endpoint.destroyed


    @pytest.mark.parametrize("ni_kind", ["sba200", "fore", "direct"])
    def test_destroy_during_the_receive_completion(self, ni_kind):
        """bob's endpoint is destroyed while his i960 holds a reassembled
        PDU for it: the PDU is dropped, not delivered into a destroyed
        endpoint, and the simulation goes on."""
        sim = Simulator()
        cluster = UNetCluster.pair(sim, ni_kind=ni_kind)
        sa = cluster.open_session("alice", "pa")
        sb = cluster.open_session("bob", "pb")
        ch_a, _ = cluster.connect_sessions(sa, sb)
        ni = cluster.host("bob").ni

        def setup():
            yield from sb.provide_receive_buffers(4)
            yield from sa.send_copy(ch_a.ident, bytes(4000))

        sim.process(setup())
        while not ni.reassembler.completed_pdus:
            sim.run(until=sim.now + 0.25)
        assert ni.i960.in_use and not ni.pdus_received
        cluster.agent("bob").destroy_endpoint(sb.endpoint, "pb")
        sim.run(until=sim.now + 1e4)
        assert ni.pdus_received == 0 and not ni.i960.in_use


class TestDirectoryServiceLifecycle:
    def test_withdrawn_service_rejects_connect(self, sim):
        cluster = UNetCluster.pair(sim)
        sa = cluster.open_session("alice", "pa")
        sb = cluster.open_session("bob", "pb")
        cluster.directory.advertise("svc", sb.endpoint, "pb")
        cluster.directory.withdraw("svc", "pb")
        with pytest.raises(ChannelError, match="unknown service"):
            cluster.directory.connect(sa.endpoint, "svc", "pa")

    def test_connect_to_destroyed_service(self, sim):
        cluster = UNetCluster.pair(sim)
        sa = cluster.open_session("alice", "pa")
        sb = cluster.open_session("bob", "pb")
        cluster.directory.advertise("svc", sb.endpoint, "pb")
        cluster.agent("bob").destroy_endpoint(sb.endpoint, "pb")
        with pytest.raises(ChannelError, match="destroyed"):
            cluster.directory.connect(sa.endpoint, "svc", "pa")

    def test_withdraw_requires_owner(self, sim):
        cluster = UNetCluster.pair(sim)
        sb = cluster.open_session("bob", "pb")
        cluster.directory.advertise("svc", sb.endpoint, "pb")
        with pytest.raises(ProtectionError):
            cluster.directory.withdraw("svc", "pa")
