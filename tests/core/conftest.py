"""Shared fixtures for core-layer tests."""

import pytest

from repro.analysis import sanitize
from repro.core import UNetCluster
from repro.sim import Simulator


@pytest.fixture(autouse=True)
def sanitizers_on():
    """Arm the runtime sanitizers for every core test, without the leak
    check at exit (many tests leave allocations behind)."""
    previous = sanitize.enable(True)
    yield
    sanitize.enable(previous)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def pair(sim):
    """Two-host SBA-200 cluster with connected sessions."""
    cluster = UNetCluster.pair(sim)
    sa = cluster.open_session("alice", "procA")
    sb = cluster.open_session("bob", "procB")
    ch_a, ch_b = cluster.connect_sessions(sa, sb)
    return cluster, sa, sb, ch_a, ch_b


def run(sim, *gens):
    """Run generator processes to completion and return them."""
    procs = [sim.process(g) for g in gens]
    sim.run(until=sim.now + 1e9)  # relative: the sim may have run before
    for p in procs:
        assert not p.is_alive, "process did not complete"
    return procs
