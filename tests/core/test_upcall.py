"""Upcall dispatch tests: conditions, critical sections, batching."""

import pytest

from repro.core import SendDescriptor, UNetCluster, UpcallCondition, register_upcall
from repro.sim import Simulator

from tests.core.conftest import run


def build():
    sim = Simulator()
    cluster = UNetCluster.pair(sim)
    sa = cluster.open_session("alice", "pa")
    sb = cluster.open_session("bob", "pb")
    ch_a, ch_b = cluster.connect_sessions(sa, sb)
    return sim, cluster, sa, sb, ch_a, ch_b


class TestNonEmptyUpcall:
    def test_handler_runs_on_arrival(self):
        sim, cluster, sa, sb, ch_a, ch_b = build()
        got = []

        def handler(endpoint):
            for desc in endpoint.recv_drain("pb"):
                got.append(desc.inline)
            yield sim.timeout(0)

        register_upcall(cluster.hosts["bob"], sb.endpoint, handler, caller="pb")

        def sender():
            yield from sa.send(SendDescriptor(channel=ch_a.ident, inline=b"ding"))

        run(sim, sender())
        sim.run(until=1e9)
        assert got == [b"ding"]

    def test_single_upcall_consumes_batch(self):
        """§3.1: all pending messages are consumed in a single upcall."""
        sim, cluster, sa, sb, ch_a, ch_b = build()
        batches = []

        def handler(endpoint):
            batch = endpoint.recv_drain("pb")
            batches.append(len(batch))
            # simulate per-batch processing time so arrivals pile up
            yield sim.timeout(200.0)

        reg = register_upcall(
            cluster.hosts["bob"], sb.endpoint, handler, caller="pb"
        )

        def sender():
            for i in range(10):
                yield from sa.send(
                    SendDescriptor(channel=ch_a.ident, inline=bytes([i]))
                )

        run(sim, sender())
        sim.run(until=1e9)
        assert sum(batches) == 10
        assert len(batches) < 10  # batching actually happened
        assert reg.invocations == len(batches)

    def test_signal_cost_charged(self):
        """The UNIX-signal upcall costs ~30 us before the handler runs."""
        sim, cluster, sa, sb, ch_a, ch_b = build()
        times = {}

        def handler(endpoint):
            times["handler_at"] = sim.now
            endpoint.recv_drain("pb")
            yield sim.timeout(0)

        register_upcall(cluster.hosts["bob"], sb.endpoint, handler, caller="pb")
        arrival = {}
        orig_deliver = sb.endpoint.deliver

        def spy(desc):
            arrival["at"] = sim.now
            return orig_deliver(desc)

        sb.endpoint.deliver = spy

        def sender():
            yield from sa.send(SendDescriptor(channel=ch_a.ident, inline=b"x"))

        run(sim, sender())
        sim.run(until=1e9)
        assert times["handler_at"] - arrival["at"] == pytest.approx(30.0)

    def test_no_signal_cost_option(self):
        sim, cluster, sa, sb, ch_a, ch_b = build()
        times = {}

        def handler(endpoint):
            times["handler_at"] = sim.now
            endpoint.recv_drain("pb")
            yield sim.timeout(0)

        register_upcall(
            cluster.hosts["bob"], sb.endpoint, handler, caller="pb",
            signal_cost=False,
        )

        def sender():
            yield from sa.send(SendDescriptor(channel=ch_a.ident, inline=b"x"))

        run(sim, sender())
        sim.run(until=1e9)
        assert "handler_at" in times


class TestCriticalSections:
    def test_disabled_upcalls_are_held(self):
        sim, cluster, sa, sb, ch_a, ch_b = build()
        got = []

        def handler(endpoint):
            got.extend(endpoint.recv_drain("pb"))
            yield sim.timeout(0)

        register_upcall(
            cluster.hosts["bob"], sb.endpoint, handler, caller="pb",
            signal_cost=False,
        )
        sb.endpoint.disable_upcalls("pb")

        def sender():
            yield from sa.send(SendDescriptor(channel=ch_a.ident, inline=b"x"))

        def enabler():
            yield sim.timeout(5000.0)
            assert got == []  # held while disabled
            sb.endpoint.enable_upcalls("pb")

        run(sim, sender(), enabler())
        sim.run(until=1e9)
        assert len(got) == 1


class TestAlmostFullUpcall:
    def test_fires_near_capacity(self):
        sim = Simulator()
        cluster = UNetCluster.pair(sim)
        sa = cluster.open_session("alice", "pa")
        sb = cluster.open_session("bob", "pb", recv_ring=8)
        ch_a, ch_b = cluster.connect_sessions(sa, sb)
        fired = []

        def handler(endpoint):
            fired.append(len(endpoint.recv_queue))
            endpoint.recv_drain("pb")
            yield sim.timeout(0)

        register_upcall(
            cluster.hosts["bob"], sb.endpoint, handler,
            condition=UpcallCondition.RECV_ALMOST_FULL, caller="pb",
            signal_cost=False,
        )

        def sender():
            for i in range(6):
                yield from sa.send(
                    SendDescriptor(channel=ch_a.ident, inline=bytes([i]))
                )

        run(sim, sender())
        sim.run(until=1e9)
        assert fired and fired[0] >= 6  # 75% of 8


class TestCancel:
    def test_cancelled_upcall_stops(self):
        sim, cluster, sa, sb, ch_a, ch_b = build()
        got = []

        def handler(endpoint):
            got.extend(endpoint.recv_drain("pb"))
            yield sim.timeout(0)

        reg = register_upcall(
            cluster.hosts["bob"], sb.endpoint, handler, caller="pb",
            signal_cost=False,
        )
        reg.cancel()

        def sender():
            yield from sa.send(SendDescriptor(channel=ch_a.ident, inline=b"x"))

        run(sim, sender())
        sim.run(until=1e9)
        assert got == []

    def test_cancel_while_signal_waits_for_cpu(self):
        """Cancelled while its signal delivery is queued behind the
        application on bob's CPU, the upcall never runs its handler and
        leaves the CPU neither held nor queued."""
        sim, cluster, sa, sb, ch_a, ch_b = build()
        bob = cluster.hosts["bob"]
        cpu = bob.cpu.resource
        got = []

        def handler(endpoint):
            got.extend(endpoint.recv_drain("pb"))
            yield sim.timeout(0)

        reg = register_upcall(bob, sb.endpoint, handler, caller="pb")

        def application():
            yield from bob.compute(1000.0)

        def sender():
            yield from sa.send(SendDescriptor(channel=ch_a.ident, inline=b"x"))

        def canceller():
            while cpu.queued != 1:
                yield sim.timeout(1.0)
            reg.cancel()

        sim.process(application())
        sim.process(sender())
        sim.process(canceller())
        sim.run(until=5000.0)
        assert got == []
        assert (cpu.in_use, cpu.queued) == (0, 0)

        def later():
            start = sim.now
            yield from bob.compute(10.0)
            return sim.now - start

        (proc,) = run(sim, later())
        assert proc.value == 10.0
        assert (cpu.in_use, cpu.queued) == (0, 0)
