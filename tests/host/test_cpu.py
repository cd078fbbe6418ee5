"""CPU model: clock scaling and serialization."""

import pytest

from repro.host import CpuModel, REFERENCE_MHZ
from repro.sim import Simulator


class TestScaling:
    def test_reference_clock_identity(self):
        cpu = CpuModel(Simulator(), mhz=REFERENCE_MHZ)
        assert cpu.scale(10.0) == 10.0

    def test_slower_clock_costs_more(self):
        cpu = CpuModel(Simulator(), mhz=30.0)
        assert cpu.scale(10.0) == pytest.approx(20.0)

    def test_faster_clock_costs_less(self):
        cpu = CpuModel(Simulator(), mhz=120.0)
        assert cpu.scale(10.0) == pytest.approx(5.0)

    def test_invalid_clock(self):
        with pytest.raises(ValueError):
            CpuModel(Simulator(), mhz=0)


class TestCompute:
    def test_compute_advances_scaled_time(self):
        sim = Simulator()
        cpu = CpuModel(sim, mhz=30.0)

        def proc():
            yield from cpu.compute(10.0)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(20.0)

    def test_compute_raw_ignores_clock(self):
        sim = Simulator()
        cpu = CpuModel(sim, mhz=30.0)

        def proc():
            yield from cpu.compute_raw(10.0)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(10.0)

    def test_serialization_between_activities(self):
        """Two activities on one CPU cannot overlap (uniprocessor)."""
        sim = Simulator()
        cpu = CpuModel(sim)
        finish = []

        def proc():
            yield from cpu.compute(10.0)
            finish.append(sim.now)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert finish == [10.0, 20.0]

    def test_busy_accounting(self):
        sim = Simulator()
        cpu = CpuModel(sim, mhz=REFERENCE_MHZ)

        def proc():
            yield from cpu.compute(7.0)
            yield from cpu.compute(3.0)

        sim.process(proc())
        sim.run()
        assert cpu.busy_us == pytest.approx(10.0)

    def test_lone_compute_schedules_two_entries(self):
        """An uncontended charge is one timeout: the process start and
        the end of the hold are the only scheduled entries."""
        sim = Simulator()
        cpu = CpuModel(sim)
        sim.process(cpu.compute(10.0))
        sim.run()
        assert sim.now == 10.0
        assert sim.events_processed == 2
        assert (cpu.resource.in_use, cpu.resource.queued) == (0, 0)
