"""Workstation cost-table tests, pinned to the paper's figures."""

import pytest

from repro.host import HostCosts, Workstation
from repro.sim import Simulator


class TestHostCosts:
    def test_checksum_rate_matches_paper(self):
        """§7.6: 'a processing overhead of 1 us per 100 bytes'."""
        costs = HostCosts()
        assert costs.checksum_us(100) == pytest.approx(1.0)

    def test_signal_cost_matches_paper(self):
        """§4.2.3: a UNIX signal adds ~30 us on each end."""
        assert HostCosts().signal_us == pytest.approx(30.0)

    def test_copy_includes_setup(self):
        costs = HostCosts()
        assert costs.copy_us(0) == 0.0
        assert costs.copy_us(100) == pytest.approx(
            costs.copy_setup_us + 100 * costs.copy_us_per_byte
        )

    def test_copy_slope_matches_uam_transfer(self):
        """§5.2: UAM block transfers cost ~0.2 us/byte per round trip --
        ~0.125 us/byte of wire time plus four copies."""
        costs = HostCosts()
        wire_per_byte_rtt = 2 * (53 * 8 / 140e6 * 1e6) / 48
        slope = wire_per_byte_rtt + 4 * costs.copy_us_per_byte
        assert slope == pytest.approx(0.2, abs=0.01)


class TestWorkstation:
    def test_cost_helpers_run_on_cpu(self):
        sim = Simulator()
        host = Workstation(sim, "w", mhz=60.0)

        def proc():
            yield from host.copy(1000)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(host.costs.copy_us(1000))

    def test_clock_scales_helpers(self):
        sim = Simulator()
        slow = Workstation(sim, "slow", mhz=30.0)

        def proc():
            yield from slow.checksum(100)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(2.0)  # 1 us at 60 MHz, x2 at 30 MHz

    def test_repr(self):
        host = Workstation(Simulator(), "node0", mhz=50.0)
        assert "node0" in repr(host)
        assert host.mhz == 50.0
