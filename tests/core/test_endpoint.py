"""Endpoint semantics: rings, ownership, upcall critical sections."""

import pytest

from repro.core import (
    FreeDescriptor,
    ProtectionError,
    RecvDescriptor,
    SendDescriptor,
    UNetError,
)
from repro.core.endpoint import (
    DELIVERED,
    NO_BUFFER,
    RING_FULL,
    Channel,
    Endpoint,
)
from repro.sim import Simulator


def make_endpoint(sim=None, **kwargs):
    sim = sim if sim is not None else Simulator()
    defaults = dict(name="ep", owner="me", segment_size=4096)
    defaults.update(kwargs)
    return Endpoint(sim, **defaults)


def attach_channel(endpoint, ident=1):
    ch = Channel(
        ident=ident, endpoint=endpoint, tx_vci=32, rx_vci=33, peer_host="peer"
    )
    endpoint.channels[ident] = ch
    return ch


class TestSend:
    def test_post_send_requires_registered_channel(self):
        ep = make_endpoint()
        with pytest.raises(ProtectionError, match="channel"):
            ep.post_send(SendDescriptor(channel=9, inline=b"x"), "me")

    def test_post_send_on_closed_channel(self):
        ep = make_endpoint()
        ch = attach_channel(ep)
        ch.open = False
        with pytest.raises(ProtectionError):
            ep.post_send(SendDescriptor(channel=1, inline=b"x"), "me")

    def test_post_send_validates_buffer_ranges(self):
        ep = make_endpoint()
        attach_channel(ep)
        bad = SendDescriptor(channel=1, bufs=((4090, 100),))
        with pytest.raises(Exception):
            ep.post_send(bad, "me")

    def test_back_pressure(self):
        ep = make_endpoint(send_ring=2)
        attach_channel(ep)
        d = lambda: SendDescriptor(channel=1, inline=b"x")
        assert ep.post_send(d(), "me")
        assert ep.post_send(d(), "me")
        assert not ep.post_send(d(), "me")


class TestOwnership:
    def test_wrong_owner_send(self):
        ep = make_endpoint()
        attach_channel(ep)
        with pytest.raises(ProtectionError):
            ep.post_send(SendDescriptor(channel=1, inline=b"x"), "intruder")

    def test_wrong_owner_recv(self):
        ep = make_endpoint()
        with pytest.raises(ProtectionError):
            ep.recv_poll("intruder")

    def test_wrong_owner_free(self):
        ep = make_endpoint()
        with pytest.raises(ProtectionError):
            ep.post_free(FreeDescriptor(0, 64), "intruder")

    def test_destroyed_endpoint_rejects_ops(self):
        ep = make_endpoint()
        attach_channel(ep)
        ep.destroyed = True
        with pytest.raises(UNetError):
            ep.recv_poll("me")


class TestReceive:
    def test_deliver_and_poll(self):
        ep = make_endpoint()
        desc = RecvDescriptor(channel=1, length=3, inline=b"abc")
        assert ep.deliver(desc)
        assert ep.recv_poll("me") is desc
        assert ep.messages_received == 1

    def test_deliver_full_ring_drops(self):
        ep = make_endpoint(recv_ring=1)
        ep.deliver(RecvDescriptor(channel=1, length=1, inline=b"a"))
        assert not ep.deliver(RecvDescriptor(channel=1, length=1, inline=b"b"))
        assert ep.receive_drops == 1

    def test_drain_consumes_all(self):
        ep = make_endpoint()
        for i in range(3):
            ep.deliver(RecvDescriptor(channel=1, length=1, inline=bytes([i])))
        assert len(ep.recv_drain("me")) == 3
        assert ep.recv_poll("me") is None

    def test_wait_recv_event(self):
        sim = Simulator()
        ep = make_endpoint(sim)
        ev = ep.wait_recv("me")
        assert not ev.triggered
        ep.deliver(RecvDescriptor(channel=1, length=1, inline=b"x"))
        assert ev.triggered


class TestScatter:
    """The one free-queue scatter step every NI model and the kernel
    emulation deliver buffered messages through (§3.4)."""

    def stocked(self, buffers, **kwargs):
        ep = make_endpoint(segment_size=8192, **kwargs)
        for i in range(buffers):
            ep.post_free(FreeDescriptor(i * 1024, 1024), "me")
        return ep

    def test_spreads_a_message_over_buffers(self):
        ep = self.stocked(3)
        payload = bytes(range(256)) * 8  # 2048 bytes
        assert ep.deliver_scattered(1, payload) == DELIVERED
        desc = ep.recv_poll("me")
        assert desc.bufs == ((0, 1024), (1024, 1024))
        assert ep.gather(desc) == payload
        assert len(ep.free_queue) == 1

    def test_out_of_buffers_returns_the_popped_ones(self):
        ep = self.stocked(2)
        assert ep.deliver_scattered(1, bytes(3000)) == NO_BUFFER
        assert ep.no_buffer_drops == 1
        assert [(f.offset, f.length) for f in ep.free_queue._items] == [
            (0, 1024),
            (1024, 1024),
        ]
        assert ep.recv_poll("me") is None

    def test_full_receive_ring_returns_the_buffers(self):
        ep = self.stocked(2, recv_ring=1)
        ep.deliver(RecvDescriptor(channel=1, length=1, inline=b"a"))
        assert ep.deliver_scattered(1, bytes(1500)) == RING_FULL
        assert ep.receive_drops == 1
        assert ep.no_buffer_drops == 0
        assert len(ep.free_queue) == 2


class TestUpcallSections:
    def test_disable_enable(self):
        ep = make_endpoint()
        ep.disable_upcalls("me")
        assert not ep.upcalls_enabled
        ev = ep.wait_upcalls_enabled()
        assert not ev.triggered
        ep.enable_upcalls("me")
        assert ev.triggered

    def test_enabled_by_default(self):
        ep = make_endpoint()
        assert ep.wait_upcalls_enabled().triggered

    def test_only_owner_toggles(self):
        ep = make_endpoint()
        with pytest.raises(ProtectionError):
            ep.disable_upcalls("intruder")


class TestSendCompletion:
    def test_completion_event_after_injection(self):
        sim = Simulator()
        ep = make_endpoint(sim)
        attach_channel(ep)
        desc = SendDescriptor(channel=1, inline=b"x")
        ev = ep.wait_send_complete(desc)
        assert not ev.triggered
        # the NI marks and triggers:
        desc.injected = True
        desc.completion.succeed()
        assert ev.triggered

    def test_on_send_complete_runs_in_the_completion_entry(self):
        sim = Simulator()
        ep = make_endpoint(sim)
        desc = SendDescriptor(channel=1, inline=b"x")
        calls = []
        ep.on_send_complete(desc, calls.append, "first")
        ep.on_send_complete(desc, calls.append, "second")
        sim.run()
        assert calls == []
        before = sim.stats()["schedules"]
        ep.complete_send(desc)
        assert desc.injected and ep.messages_sent == 1
        sim.run()
        # one entry, the completion event, runs both callbacks in order
        assert sim.stats()["schedules"] - before == 1
        assert calls == ["first", "second"]

    def test_on_send_complete_after_the_completion_fired(self):
        sim = Simulator()
        ep = make_endpoint(sim)
        desc = SendDescriptor(channel=1, inline=b"x")
        ep.complete_send(desc)
        ep.wait_send_complete(desc)
        sim.run()
        calls = []
        ep.on_send_complete(desc, calls.append, "late")
        assert calls == ["late"]

    def test_completion_event_already_injected(self):
        sim = Simulator()
        ep = make_endpoint(sim)
        desc = SendDescriptor(channel=1, inline=b"x")
        desc.injected = True
        assert ep.wait_send_complete(desc).triggered
