"""Transmit buffers are reclaimed by a completion callback (§3.1).

Both IP stacks free a datagram's segment buffer, and user-level TCP
drops its in-flight buffer references, in the entry that fires the
send descriptor's completion event: the instant the NI marks it
injected.  No process is started per datagram for it.
"""

from collections import Counter

import pytest

from repro.bench.ip import build_kernel_atm_pair, build_unet_pair
from repro.core.errors import UNetError
from repro.ip.tcp import TcpConfig
from repro.sim import Simulator


def session_of(stack):
    device = getattr(stack, "device", None)
    return device.session if device is not None else stack.session


def watch(sim, session):
    """Record ``(offset, now)`` for every buffered send descriptor's
    injection and for every segment free on ``session``."""
    endpoint = session.endpoint
    injected, freed = [], []
    push, free = endpoint.send_queue.push, session.free

    def push_and_watch(desc):
        ok = push(desc)
        if ok and desc.bufs:
            offset = desc.bufs[0][0]
            endpoint.wait_send_complete(desc).callbacks.append(
                lambda _event: injected.append((offset, sim.now))
            )
        return ok

    def free_and_record(offset, length):
        freed.append((offset, sim.now))
        free(offset, length)

    endpoint.send_queue.push = push_and_watch
    session.free = free_and_record
    return injected, freed


@pytest.mark.parametrize("builder", [build_unet_pair, build_kernel_atm_pair])
def test_udp_burst_frees_every_buffer_at_its_injection(builder):
    sim, _net, stack_a, stack_b = builder()
    a = stack_a.udp_socket(1000)
    b = stack_b.udp_socket(2000)
    session = session_of(stack_a)
    segment = session.endpoint.segment
    before = segment.live_allocations
    injected, freed = watch(sim, session)

    def burst():
        for size in (100, 1500, 4000, 8000, 100, 3000):
            yield from a.sendto(bytes(size), (2, 2000))

    sim.process(burst())
    sim.run(until=sim.now + 1e7)
    assert b.received == 6
    assert segment.live_allocations == before
    assert len(freed) == 6
    assert Counter(freed) == Counter(injected)


def test_tcp_transfer_returns_every_transmit_buffer():
    sim, _net, stack_a, stack_b = build_unet_pair()
    config = TcpConfig(window=8192)
    server = stack_b.tcp_listen(7000, peer_addr=1, config=config)
    segment = stack_a.session.endpoint.segment
    before = segment.live_allocations
    injected, freed = watch(sim, stack_a.session)
    total = 64 * 1024
    got = []

    def client():
        conn = yield from stack_a.tcp_connect(2, 7000, config=config)
        got.append(conn)
        for _ in range(total // 2048):
            yield from conn.send(bytes(2048))

    def sink():
        yield from server.wait_established()
        received = 0
        while received < total:
            received += len((yield from server.recv(1 << 20)))

    sim.process(client())
    sim.process(sink())
    sim.run(until=sim.now + 1e9)
    env = got[0].env
    pool, headers = env._pool, env._headers
    # Gathered segments: every buffer is back in its pool once acked
    # and injected.
    assert pool.available == pool.total
    assert headers.available == headers.total
    assert env.zero_copy_retransmits == 0
    # Copied datagrams (the handshake and pure acks): each freed at its
    # injection instant; only the two pools stay allocated.
    assert freed
    assert not Counter(freed) - Counter(injected)
    assert segment.live_allocations == before + pool.total + headers.total


@pytest.mark.parametrize(
    "builder, entries", [(build_unet_pair, 20), (build_kernel_atm_pair, 27)]
)
def test_one_datagram_schedules_no_reclaim_process(builder, entries):
    """A 100-byte datagram and its delivery; a reclaim process per
    datagram cost one more entry (its start).  The datagram is a
    three-cell train, which the receiving NI takes in two entries
    instead of a delivery and an i960 hold per cell: 24 and 31 entries
    before that."""
    sim, _net, stack_a, stack_b = builder()
    a = stack_a.udp_socket(1000)
    b = stack_b.udp_socket(2000)

    def sender():
        yield from a.sendto(bytes(100), (2, 2000))

    before = sim.stats()["schedules"]
    sim.process(sender())
    sim.run(until=sim.now + 1e6)
    assert b.received == 1
    assert sim.stats()["schedules"] - before == entries


@pytest.mark.parametrize("builder", [build_unet_pair, build_kernel_atm_pair])
def test_udp_port_binds_once(builder):
    _sim, _net, stack_a, _stack_b = builder()
    first = stack_a.udp_socket(1000)
    with pytest.raises(UNetError, match="already bound"):
        stack_a.udp_socket(1000)
    assert stack_a._udp_sockets[1000] is first
    automatic = {stack_a.udp_socket().port for _ in range(3)}
    assert len(automatic) == 3 and 1000 not in automatic


@pytest.mark.parametrize(
    "build, rx_name",
    [(build_unet_pair, "ipstack.1.pump"), (build_kernel_atm_pair, "atmdev.rx")],
    ids=["unet", "kernel"],
)
def test_destroy_ends_the_receive_loop(monkeypatch, build, rx_name):
    """Destroying the stack's endpoint ends its receive loop cleanly:
    ``sim.run`` does not raise and the loop is not left blocked."""
    started = []
    spawn = Simulator.process

    def record(self, generator, name=""):
        proc = spawn(self, generator, name)
        started.append(proc)
        return proc

    monkeypatch.setattr(Simulator, "process", record)
    sim, cluster, stack_a, _stack_b = build()
    monkeypatch.undo()
    # alice's stack boots first, so its loop is the first of that name
    rx = next(p for p in started if p.name == rx_name)
    assert rx.is_alive
    session = session_of(stack_a)
    cluster.agent("alice").destroy_endpoint(session.endpoint, session.caller)
    sim.run(until=sim.now + 1e6)
    assert not rx.is_alive
