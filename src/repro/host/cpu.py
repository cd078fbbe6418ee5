"""CPU cost model: a counted resource plus clock scaling."""

from __future__ import annotations

from repro import obs
from repro.sim import Resource, Simulator

#: All cost constants in the repo are calibrated at this clock.
REFERENCE_MHZ = 60.0


class CpuModel:
    """A single host processor.

    Software costs are stated in microseconds at the 60 MHz reference
    SuperSPARC; :meth:`scale` converts them to this CPU's clock.  The
    processor is a capacity-1 resource, so concurrent activities on one
    host (application, kernel protocol processing, signal handlers)
    serialize, as they did on the paper's uniprocessor workstations.
    """

    def __init__(self, sim: Simulator, mhz: float = REFERENCE_MHZ, name: str = "cpu"):
        if mhz <= 0:
            raise ValueError("clock rate must be positive")
        self.sim = sim
        self.mhz = mhz
        self.name = name
        self.resource = Resource(sim, capacity=1, name=name)
        self.busy_us = 0.0

    def scale(self, us_at_reference: float) -> float:
        """Convert a reference-clock cost into this CPU's cost."""
        return us_at_reference * (REFERENCE_MHZ / self.mhz)

    def compute(self, us_at_reference: float, priority: int = 0):
        """Generator: occupy the CPU for a (clock-scaled) duration.

        ``priority`` below zero models interrupt-level work (splnet):
        it is served before queued process-level work."""
        return self._hold(self.scale(us_at_reference), priority)

    def compute_raw(self, us: float):
        """Generator: occupy the CPU for an *unscaled* duration."""
        return self._hold(us, 0)

    def _hold(self, us: float, priority: int):
        _o = obs.active
        if _o is not None:
            _o.charge(us)
        yield from self.resource.use(us, priority)
        self.busy_us += us
        if _o is not None:
            _o.sample(self.sim.now, f"{self.name}.busy_us", self.busy_us)
