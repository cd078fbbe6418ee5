"""The workstation: one CPU, memory-system costs, kernel overheads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.host.cpu import CpuModel, REFERENCE_MHZ
from repro.sim import Simulator


@dataclass
class HostCosts:
    """Software cost constants at the 60 MHz reference clock.

    Each value is annotated with the paper evidence it is calibrated
    against; see DESIGN.md §4.
    """

    #: Memory-to-memory copy (~53 MB/s memcpy on the SS-20).  Derived
    #: from the UAM block-transfer slope (§5.2): 0.2 us/byte per round
    #: trip = 0.125 us/byte of wire time (two directions of ~6 us/cell)
    #: plus four copies -- two per one-way transfer -- of ~0.019 us/byte.
    copy_us_per_byte: float = 0.019
    #: Fixed cost to set up any copy (function call, loop prologue).
    copy_setup_us: float = 0.4
    #: Internet checksum: "1 us per 100 bytes on a SPARCstation-20" (§7.6).
    checksum_us_per_byte: float = 0.01
    #: A full SunOS system call.
    syscall_us: float = 15.0
    #: UNIX signal delivery ("adds approximately another 30 us on each
    #: end", §4.2.3).
    signal_us: float = 30.0
    #: select()-style blocking wakeup overhead.
    select_wakeup_us: float = 20.0

    def copy_us(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        return self.copy_setup_us + nbytes * self.copy_us_per_byte

    def checksum_us(self, nbytes: int) -> float:
        return nbytes * self.checksum_us_per_byte


class Workstation:
    """A host: name, clocked CPU, cost table, and an attachment slot
    for a network interface."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mhz: float = REFERENCE_MHZ,
        costs: Optional[HostCosts] = None,
    ):
        self.sim = sim
        self.name = name
        self.cpu = CpuModel(sim, mhz=mhz, name=f"{name}.cpu")
        self.costs = costs if costs is not None else HostCosts()
        self.ni = None  # set by the NI model when attached

    @property
    def mhz(self) -> float:
        return self.cpu.mhz

    # -- cost helper generators (run on this host's CPU) ---------------
    def compute(self, us_at_reference: float):
        return self.cpu.compute(us_at_reference)

    def copy(self, nbytes: int):
        return self.cpu.compute(self.costs.copy_us(nbytes))

    def checksum(self, nbytes: int):
        return self.cpu.compute(self.costs.checksum_us(nbytes))

    def syscall(self):
        return self.cpu.compute(self.costs.syscall_us)

    def signal_delivery(self):
        return self.cpu.compute(self.costs.signal_us)

    def __repr__(self) -> str:
        return f"<Workstation {self.name} @{self.mhz:g}MHz>"
