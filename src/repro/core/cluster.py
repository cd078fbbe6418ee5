"""Testbed assembly: hosts + switch + NIs + kernel agents + directory.

:meth:`UNetCluster.paper_testbed` reproduces the §4.2 experimental
set-up: five 60 MHz SPARCstation-20s and three 50 MHz SPARCstation-10s
on a Fore ASX-200 switch with 140 Mbit/s TAXI fibers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.atm.link import TAXI_140_BPS
from repro.atm.network import AtmNetwork
from repro.core.api import UNetSession
from repro.core.endpoint import Channel, Endpoint
from repro.core.kernel_agent import ClusterDirectory, KernelAgent, ResourceLimits
from repro.core.ni.costs import ForeCosts, Sba100Costs, Sba200Costs
from repro.host import Workstation
from repro.sim import Simulator, Tracer


class UNetCluster:
    """A ready-to-use ATM cluster running U-Net."""

    def __init__(
        self,
        sim: Simulator,
        host_specs: Sequence[Tuple[str, float]],
        ni_kind: str = "sba200",
        bandwidth_bps: float = TAXI_140_BPS,
        limits: Optional[ResourceLimits] = None,
        tracer: Optional[Tracer] = None,
        ni_costs=None,
    ):
        # NI classes are imported lazily to avoid circular imports.
        from repro.core.direct import DirectAccessNI
        from repro.core.ni.fore import ForeFirmwareNI
        from repro.core.ni.sba100 import Sba100UNet
        from repro.core.ni.sba200 import Sba200UNet

        ni_factories = {
            "sba200": (Sba200UNet, Sba200Costs),
            "sba100": (Sba100UNet, Sba100Costs),
            "fore": (ForeFirmwareNI, ForeCosts),
            "direct": (DirectAccessNI, Sba200Costs),
        }
        if ni_kind not in ni_factories:
            raise ValueError(f"unknown NI kind {ni_kind!r}")
        ni_cls, default_costs = ni_factories[ni_kind]

        self.sim = sim
        self.tracer = tracer if tracer is not None else Tracer()
        self.network = AtmNetwork(
            sim, n_ports=len(host_specs), bandwidth_bps=bandwidth_bps,
            tracer=self.tracer,
        )
        self.hosts: Dict[str, Workstation] = {}
        self.agents: Dict[str, KernelAgent] = {}
        self.directory = ClusterDirectory(self.network)
        for name, mhz in host_specs:
            port = self.network.attach(name)
            host = Workstation(sim, name, mhz=mhz, tracer=self.tracer)
            ni = ni_cls(
                host, port, costs=ni_costs or default_costs(), tracer=self.tracer
            )
            agent = KernelAgent(host, ni, limits=limits, tracer=self.tracer)
            self.directory.register_agent(agent)
            self.hosts[name] = host
            self.agents[name] = agent

    @classmethod
    def paper_testbed(cls, sim: Simulator, **kwargs) -> "UNetCluster":
        """The eight-node cluster of §4.2."""
        specs = [(f"ss20-{i}", 60.0) for i in range(5)]
        specs += [(f"ss10-{i}", 50.0) for i in range(3)]
        return cls(sim, specs, **kwargs)

    @classmethod
    def pair(
        cls, sim: Simulator, mhz: float = 60.0, ni_kind: str = "sba200", **kwargs
    ) -> "UNetCluster":
        """Two identical hosts -- the micro-benchmark configuration."""
        return cls(sim, [("alice", mhz), ("bob", mhz)], ni_kind=ni_kind, **kwargs)

    @property
    def host_names(self) -> List[str]:
        return list(self.hosts)

    def host(self, name: str) -> Workstation:
        return self.hosts[name]

    def agent(self, name: str) -> KernelAgent:
        return self.agents[name]

    def open_session(
        self, host_name: str, owner: str, **endpoint_kwargs
    ) -> UNetSession:
        """Create an endpoint on ``host_name`` and wrap it in a session."""
        agent = self.agents[host_name]
        endpoint = agent.create_endpoint(owner=owner, **endpoint_kwargs)
        return UNetSession(self.hosts[host_name], endpoint, owner)

    def connect_sessions(
        self, a: UNetSession, b: UNetSession, service: str = ""
    ) -> Tuple[Channel, Channel]:
        """Wire two sessions together with a full-duplex channel."""
        service = service or f"svc-{id(b.endpoint):x}"
        self.directory.advertise(service, b.endpoint, b.caller)
        channels = self.directory.connect(a.endpoint, service, a.caller)
        self.directory.withdraw(service, b.caller)
        return channels
