"""Topology builder: hosts in a star around one ASX-200 switch.

This is the testbed of the paper (§4.2): up to eight workstations, each
on its own 140 Mbit/s full-duplex TAXI fiber to the switch.  The network
also provides the *signalling service* role of §3.2: allocating
virtual-circuit identifiers and installing switch routes when the
kernel agent opens a channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.atm.cell import Cell
from repro.atm.link import TAXI_140_BPS, Link
from repro.atm.switch import Switch
from repro.sim import Simulator, Tracer

#: VCIs 0-31 are reserved for signalling/management, as on real ATM gear.
FIRST_USER_VCI = 32


@dataclass(frozen=True)
class VciPair:
    """One side's view of a full-duplex virtual circuit."""

    tx: int  # VCI to stamp on outgoing cells
    rx: int  # VCI on which this side's incoming cells arrive

    def reversed(self) -> "VciPair":
        return VciPair(tx=self.rx, rx=self.tx)


class NetworkPort:
    """A host's attachment point: one TX fiber in, one RX fiber out."""

    def __init__(
        self,
        network: "AtmNetwork",
        index: int,
        name: str,
        tx_link: Link,
    ):
        self.network = network
        self.index = index
        self.name = name
        self.tx_link = tx_link

    def send_cell(self, cell: Cell) -> bool:
        return self.tx_link.send(cell)

    def set_rx_sink(self, sink: Callable[[Cell], None]) -> None:
        self.network.switch.output_links[self.index].connect(sink)


class AtmNetwork:
    """Star of hosts around one switch, plus VCI signalling."""

    def __init__(
        self,
        sim: Simulator,
        n_ports: int = 8,
        bandwidth_bps: float = TAXI_140_BPS,
        propagation_us: float = 0.3,
        switching_latency_us: float = 2.0,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.tracer = tracer if tracer is not None else Tracer()
        self.switch = Switch(
            sim,
            n_ports=n_ports,
            bandwidth_bps=bandwidth_bps,
            switching_latency_us=switching_latency_us,
            propagation_us=propagation_us,
            tracer=self.tracer,
        )
        self._ports: Dict[str, NetworkPort] = {}
        self._next_vci = FIRST_USER_VCI
        self._next_port = 0

    def attach(self, name: str) -> NetworkPort:
        """Attach a named host; returns its port."""
        if name in self._ports:
            raise ValueError(f"host {name!r} already attached")
        if self._next_port >= self.switch.n_ports:
            raise ValueError("switch is out of ports")
        index = self._next_port
        self._next_port += 1
        tx_link = Link(
            self.sim,
            bandwidth_bps=self.bandwidth_bps,
            propagation_us=self.switch.output_links[index].propagation_us,
            name=f"{name}.tx",
            tracer=self.tracer,
        )
        tx_link.connect(
            self.switch.input_sink(index),
            train_sink=self.switch.input_train_sink(index),
        )
        port = NetworkPort(self, index, name, tx_link)
        self._ports[name] = port
        return port

    def port(self, name: str) -> NetworkPort:
        return self._ports[name]

    @property
    def port_names(self):
        return list(self._ports)

    def allocate_vci(self) -> int:
        vci = self._next_vci
        self._next_vci += 1
        return vci

    def open_virtual_circuit(self, a: str, b: str) -> VciPair:
        """Install a full-duplex VC between hosts ``a`` and ``b``.

        Returns host ``a``'s :class:`VciPair`; host ``b`` uses the
        reversed pair.  This is the switch-path-setup step that the
        paper leaves to the OS signalling service.
        """
        port_a, port_b = self._ports[a], self._ports[b]
        if port_a is port_b:
            raise ValueError("cannot open a VC from a host to itself")
        vci_ab = self.allocate_vci()
        vci_ba = self.allocate_vci()
        self.switch.add_route(port_a.index, vci_ab, port_b.index, vci_ab)
        self.switch.add_route(port_b.index, vci_ba, port_a.index, vci_ba)
        return VciPair(tx=vci_ab, rx=vci_ba)

    def close_virtual_circuit(self, a: str, b: str, pair: VciPair) -> None:
        port_a, port_b = self._ports[a], self._ports[b]
        self.switch.remove_route(port_a.index, pair.tx)
        self.switch.remove_route(port_b.index, pair.rx)

    def cell_time_us(self) -> float:
        """Wire time of one cell on this network's links."""
        return 53 * 8 / self.bandwidth_bps * 1e6
