"""Output-buffered ATM switch in the style of the Fore ASX-200.

Each port is a full-duplex fiber attachment: cells arriving on a port's
input are looked up in a per-(port, VCI) routing table, relabelled with
the outgoing VCI, and forwarded after a fixed switching latency to the
output link of the destination port; the output slot is claimed, as of
the exit instant, when the cell enters the crossbar.  A cell train from
the only port routed to its output has every slot claimed when its
first cell arrives (:meth:`Switch.input_train_sink`), and reaches a
train-aware receiver (the SBA-200) as one train.  Output contention
is absorbed by the (finite) output link queue; overflow drops cells,
which downstream turns into AAL5 CRC failures -- the paper's §7.8
cell-loss discussion.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.atm.aal5 import cpcs_cell
from repro.atm.cell import MAX_VCI, Cell
from repro.atm.link import TAXI_140_BPS, CellTrain, Link
from repro.sim import Simulator
from repro.sim import engine as _engine


@dataclass(frozen=True)
class SwitchRoute:
    out_port: int
    out_vci: int


class _TrainClaim:
    """A train whose output slots were all claimed at its first arrival,
    kept until a route change may need to withdraw its later cells.

    ``live`` is the number of leading cells whose deliveries stand;
    every delivery entry checks its index against it.  When the output
    link has a train sink, the admitted cells go out as one
    :class:`CellTrain` (``out_train``; ``admitted`` maps its cells to
    the claim's indices) and a withdrawal lowers that train's ``live``
    instead."""

    __slots__ = (
        "port",
        "vci",
        "link",
        "train",
        "link_state",
        "live",
        "out_train",
        "admitted",
    )

    def __init__(self, port, vci, link, train, link_state):
        self.port = port
        self.vci = vci
        self.link = link
        self.train = train
        self.link_state = link_state
        self.live = len(train)
        self.out_train: Optional[CellTrain] = None
        self.admitted: List[int] = []

    def deliver(self, i: int, cell: Cell) -> None:
        if i < self.live:
            self.link._deliver_cell(cell)

    def deliver_train(self, train: CellTrain) -> None:
        if train.live:
            self.link._deliver_train(train)

    def cut(self, kept: int) -> None:
        """Withdraw every cell from index ``kept`` on."""
        self.live = kept
        out = self.out_train
        if out is not None:
            out.live = bisect_left(self.admitted, kept)
            if out.settle is not None:
                out.settle()


class Switch:
    """An N-port VCI-translating cell switch."""

    __slots__ = (
        "sim",
        "n_ports",
        "switching_latency_us",
        "name",
        "_routes",
        "_feeders",
        "_claims",
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
        # Per output port: input port -> number of routes from it.
        self._feeders: List[Dict[int, int]] = [{} for _ in range(n_ports)]
        # Per input port: the last train claimed at its first arrival.
        self._claims: List[Optional[_TrainClaim]] = [None] * n_ports
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
        feeders = self._feeders[out_port]
        feeders[in_port] = feeders.get(in_port, 0) + 1
        if len(feeders) > 1:
            # A train claimed while its port was the sole feeder must
            # now contend cell by cell with the new one.
            link = self.output_links[out_port]
            for claim in self._claims:
                if claim is not None and claim.link is link:
                    self._withdraw(claim)

    def remove_route(self, in_port: int, in_vci: int) -> None:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self._routes), f"routes:{self.name}", "w")
        route = self._routes.pop((in_port, in_vci))
        feeders = self._feeders[route.out_port]
        feeders[in_port] -= 1
        if not feeders[in_port]:
            del feeders[in_port]
        claim = self._claims[in_port]
        if claim is not None and claim.vci == in_vci:
            # Cells still on the wire meet the route change on arrival.
            self._withdraw(claim)

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

        Cell ``i`` of a :class:`CellTrain` is forwarded exactly as if it
        had arrived individually at ``train.arrivals_us[i]``.  When
        ``port`` is the only port routed to the train's output, every
        cell's output slot is claimed at the first arrival, each as of
        its own exit instant; a route change before the last arrival
        withdraws the cells still on the wire and receives them one by
        one.  Otherwise each cell is received at its own arrival, so
        output contention and FIFO order against other traffic are
        preserved cell for cell."""
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
        # on the wire.
        route = self._routes.get((port, train.vci))
        if (
            route is not None
            and _engine.access_hook is None
            and obs.active is None
            and len(self._feeders[route.out_port]) == 1
        ):
            link = self.output_links[route.out_port]
            if link.fast_path and link.loss_fn is None:
                self._claim_train(port, route, link, train)
                return
        self._receive(port, train.cell(0))
        self._expand(port, train, 1)

    def _expand(self, port: int, train: CellTrain, first: int) -> None:
        """Receive cells ``first..`` of ``train`` each at its arrival,
        where the route is looked up: circuits torn down mid-train drop
        the tail cells."""
        arrivals = train.arrivals_us
        schedule_at = self.sim.schedule_callback_at
        for i in range(first, len(train)):
            schedule_at(arrivals[i], self._receive, port, train.cell(i))

    def _claim_train(
        self, port: int, route: SwitchRoute, link: Link, train: CellTrain
    ) -> None:
        """Claim every cell's output slot now, as :meth:`_receive` would
        at each arrival.  ``port`` is the link's only feeder and its
        cells arrive in order, so the claims are made in exit order
        with no other claim between them.  An output link with a train
        sink gets the admitted cells as one train relabelled with the
        outgoing VCI, sharing the CPCS bytes, in one entry."""
        claim = _TrainClaim(port, train.vci, link, train, link.claim_state())
        self._claims[port] = claim
        self.cells_switched += len(train)
        out_vci = route.out_vci
        if not 0 <= out_vci <= MAX_VCI:
            raise ValueError(f"VCI out of range: {out_vci}")
        admitted, arrivals = link.send_train_at(
            train.arrivals_us, self.switching_latency_us
        )
        indices = train.indices
        if len(admitted) < len(train):
            indices = [indices[i] for i in admitted]
        schedule_at = self.sim.schedule_callback_at
        if link._train_sink is not None and len(admitted) > 1:
            # The receiving NI takes the admitted cells in one entry too.
            out = CellTrain(out_vci, train.cpcs, indices, arrivals)
            claim.out_train = out
            claim.admitted = admitted
            schedule_at(arrivals[0], claim.deliver_train, out)
        else:
            deliver = claim.deliver
            cpcs = train.cpcs
            for i, j, arrival in zip(admitted, indices, arrivals):
                schedule_at(arrival, deliver, i, cpcs_cell(cpcs, out_vci, j))

    def _withdraw(self, claim: _TrainClaim) -> None:
        """Take back the claims of the cells that have not arrived yet
        and receive those cells one by one instead.

        The train is its link's only feeder, so its claims are the
        link's last ones: rewinding the link to its state before the
        train and replaying the arrived cells' claims leaves it exactly
        as per-cell forwarding would have."""
        self._claims[claim.port] = None
        train = claim.train
        kept = bisect_right(train.arrivals_us, self.sim._now)
        withdrawn = len(train) - kept
        if not withdrawn:
            return
        claim.cut(kept)
        link = claim.link
        link.rewind(claim.link_state)
        link.send_train_at(train.arrivals_us[:kept], self.switching_latency_us)
        self.cells_switched -= withdrawn
        self._expand(claim.port, train, kept)

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_ports:
            raise ValueError(f"port {port} out of range (0..{self.n_ports - 1})")
