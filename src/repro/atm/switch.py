"""Output-buffered ATM switch in the style of the Fore ASX-200.

Each port is a full-duplex fiber attachment: cells arriving on a port's
input are looked up in a per-(port, VCI) routing table, relabelled with
the outgoing VCI, and forwarded after a fixed switching latency to the
output link of the destination port; the output slot is claimed, as of
the exit instant, when the cell enters the crossbar.  Output contention
is absorbed by the (finite) output link queue; overflow drops cells,
which downstream turns into AAL5 CRC failures -- the paper's §7.8
cell-loss discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro import obs
from repro.atm.cell import Cell
from repro.atm.link import TAXI_140_BPS, CellTrain, Link
from repro.sim import Simulator
from repro.sim import engine as _engine


@dataclass(frozen=True)
class SwitchRoute:
    out_port: int
    out_vci: int


class Switch:
    """An N-port VCI-translating cell switch."""

    __slots__ = (
        "sim",
        "n_ports",
        "switching_latency_us",
        "name",
        "_routes",
        "output_links",
        "cells_switched",
        "cells_unrouted",
        "_k_unrouted",
        "_k_buf",
    )

    def __init__(
        self,
        sim: Simulator,
        n_ports: int,
        bandwidth_bps: float = TAXI_140_BPS,
        switching_latency_us: float = 2.0,
        output_queue_cells: int = 256,
        propagation_us: float = 0.3,
        name: str = "asx200",
    ):
        if n_ports < 1:
            raise ValueError("switch needs at least one port")
        self.sim = sim
        self.n_ports = n_ports
        self.switching_latency_us = switching_latency_us
        self.name = name
        self._routes: Dict[Tuple[int, int], SwitchRoute] = {}
        self.output_links = [
            Link(
                sim,
                bandwidth_bps=bandwidth_bps,
                propagation_us=propagation_us,
                name=f"{name}.out{p}",
                queue_cells=output_queue_cells,
            )
            for p in range(n_ports)
        ]
        self.cells_switched = 0
        self.cells_unrouted = 0
        # Built once: _receive() runs per cell on the event hot path.
        self._k_unrouted = f"switch.{name}.unrouted"
        self._k_buf = f"switch.{name}.buffer_high_water"

    def add_route(self, in_port: int, in_vci: int, out_port: int, out_vci: int) -> None:
        self._check_port(in_port)
        self._check_port(out_port)
        key = (in_port, in_vci)
        if key in self._routes:
            raise ValueError(f"route already exists for port {in_port} VCI {in_vci}")
        if _engine.access_hook is not None:
            _engine.access_hook(id(self._routes), f"routes:{self.name}", "w")
        self._routes[key] = SwitchRoute(out_port, out_vci)

    def remove_route(self, in_port: int, in_vci: int) -> None:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self._routes), f"routes:{self.name}", "w")
        del self._routes[(in_port, in_vci)]

    def has_route(self, in_port: int, in_vci: int) -> bool:
        return (in_port, in_vci) in self._routes

    def input_sink(self, port: int):
        """The callable to wire a host's TX link into."""
        self._check_port(port)

        def sink(cell: Cell, _port: int = port) -> None:
            self._receive(_port, cell)

        return sink

    def input_train_sink(self, port: int):
        """Train-aware variant of :meth:`input_sink`.

        A :class:`CellTrain` is expanded here: cell ``i`` of the train is
        forwarded exactly as if it had arrived individually at
        ``train.arrival_us(i)``, so output-link contention and FIFO order
        against other traffic are preserved cell-for-cell."""
        self._check_port(port)

        def sink(train: CellTrain, _port: int = port) -> None:
            self._receive_train(_port, train)

        return sink

    def _receive(self, port: int, cell: Cell) -> None:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self._routes), f"routes:{self.name}", "r")
        route = self._routes.get((port, cell.vci))
        _o = obs.active
        if route is None:
            self.cells_unrouted += 1
            if _o is not None:
                _o.count(self._k_unrouted)
            return
        # Every cell waits the same switching latency and only this
        # switch claims its output links, so claims made at crossbar
        # entry, as of the exit instant, happen in exit order: the output
        # slot is claimed here, with no second entry for the exit.
        now = self.sim._now
        exit_us = now + self.switching_latency_us
        if _o is not None:
            _o.add_complete(now, exit_us, "xbar", "switch", host=self.name)
        self.cells_switched += 1
        link = self.output_links[route.out_port]
        link.send_at(cell.with_vci(route.out_vci), exit_us)
        if _o is not None:
            # Output contention lives in the per-port link queues; the
            # switch-level high-water gauge is the max across all ports.
            _o.gauge_max(self._k_buf, len(link._starts))

    def _receive_train(self, port: int, train: CellTrain) -> None:
        # Fires at the first cell's arrival time; later cells are still
        # on the wire, so each is received at its own arrival offset.
        # The route is looked up per cell *at arrival time*: circuits
        # torn down mid-train drop the tail cells, same as per-cell mode.
        cells = train.cells
        arrivals = train.arrivals_us
        schedule_at = self.sim.schedule_callback_at
        self._receive(port, cells[0])
        for i in range(1, len(cells)):
            schedule_at(arrivals[i], self._receive, port, cells[i])

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_ports:
            raise ValueError(f"port {port} out of range (0..{self.n_ports - 1})")
