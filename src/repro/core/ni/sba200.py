"""U-Net firmware on the Fore SBA-200's i960 coprocessor (§4.2.2).

The i960 is modelled as a capacity-1 resource: transmit and receive
firmware compete for it, just as on the real 25 MHz part.  Message data
genuinely flows: send descriptors are gathered out of the communication
segment, segmented into AAL5 cells, serialized onto the TAXI fiber,
switched, reassembled (CRC-checked), and scattered into receive buffers
popped off the destination endpoint's free queue.

Fast paths from the paper:

* single-cell sends are optimized (payload <= 40 bytes rides in the
  descriptor, no buffer management);
* single-cell receives go "directly into the next receive queue entry",
  skipping the free queue;
* multi-cell receives pull fixed-size buffers off the free queue and
  DMA the descriptor in when the last cell arrives.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf, nextafter
from typing import List, Optional, Tuple

from repro import obs
from repro.atm.aal5 import cells_for_pdu, cpcs_encode
from repro.atm.cell import Cell
from repro.atm.link import CellTrain
from repro.atm.network import NetworkPort
from repro.core.descriptors import SINGLE_CELL_MAX, SendDescriptor
from repro.core.endpoint import Endpoint
from repro.core.ni.base import NetworkInterface
from repro.core.ni.costs import Sba200Costs
from repro.host import Workstation
from repro.sim import Resource
from repro.sim import engine as _engine


class Sba200UNet(NetworkInterface):
    """Base-level U-Net on re-programmed SBA-200 firmware."""

    #: Firmware identity recorded on obs spans (Fore overrides this).
    obs_firmware = "unet-sba200"

    __slots__ = (
        "costs",
        "i960",
        "single_cell_optimization",
        "_rx_busy",
        "_rx_running",
        "_rx_first",
        "_rx_starts",
        "_rx_pending",
    )

    def __init__(
        self,
        host: Workstation,
        port: NetworkPort,
        costs: Optional[Sba200Costs] = None,
        single_cell_optimization: bool = True,
    ):
        self.costs = costs if costs is not None else Sba200Costs()
        super().__init__(host, port, input_fifo_cells=self.costs.input_fifo_cells)
        #: The single on-board processor; TX and RX firmware share it.
        self.i960 = Resource(self.sim, capacity=1, name=f"{self.name}.i960")
        self.single_cell_optimization = single_cell_optimization
        self.port.tx_link.set_queue_capacity(self.costs.tx_queue_cells)
        #: True from the moment a cell reaches the receive firmware until
        #: the FIFO is found empty after it.
        self._rx_busy = False
        #: The train being run analytically, the index of its run's
        #: first cell and the start float of each cell of the run; and
        #: the (train, first cell) runs waiting behind it.
        self._rx_running: Optional[CellTrain] = None
        self._rx_first = 0
        self._rx_starts: Optional[List[float]] = None
        self._rx_pending: List[Tuple[CellTrain, int]] = []
        port.set_rx_sink(self._rx_sink, self._rx_train_sink)

    # -- transmit ---------------------------------------------------------
    def _on_attach(self, endpoint: Endpoint) -> None:
        self.sim.process(
            self._tx_firmware(endpoint), name=f"{self.name}.tx.{endpoint.name}"
        )

    def _gather(self, endpoint: Endpoint, desc: SendDescriptor) -> bytes:
        """The bytes put on the wire (direct access adds framing)."""
        return endpoint.gather(desc)

    def _tx_firmware(self, endpoint: Endpoint):
        """Service one endpoint's send queue (the i960 polls these
        i960-resident queues without DMA, §4.2.2)."""
        costs = self.costs
        while True:
            desc = yield from endpoint.take_send()
            if desc is None:
                return
            channel = self._tx_channel(endpoint, desc)
            if channel is None:
                continue
            payload = self._gather(endpoint, desc)
            n_cells = cells_for_pdu(len(payload))
            single = (
                self.single_cell_optimization
                and n_cells == 1
                and len(payload) <= SINGLE_CELL_MAX
            )
            if single:
                cost = costs.i960_tx_poll_us + costs.i960_tx_single_us
            else:
                cost = (
                    costs.i960_tx_poll_us
                    + costs.i960_tx_packet_us
                    + costs.i960_tx_per_cell_us * n_cells
                )
            _o = obs.active
            _sp = (
                _o.begin(
                    self.sim.now,
                    "tx_single" if single else "tx_packet",
                    "ni_tx",
                    host=self.host.name,
                )
                if _o is not None
                else None
            )
            # Asking for the i960 is the one contact between the two
            # loops, so the receive trains settle first.
            self._rx_settle()
            yield from self.i960.use(cost)
            # Segmentation and the CRC are per-PDU hardware work: the
            # CPCS bytes go down whole.  Paced by the outbound cell
            # queue: back-pressure propagates to the send ring when the
            # fiber is busy.  The whole AAL5 train goes down in one
            # claim; the event fires when the last cell has been
            # admitted, same pacing as per-cell puts.
            yield self.port.tx_link.put_train(channel.tx_vci, cpcs_encode(payload))
            if _sp is not None:
                _o.annotate(
                    _sp,
                    cells=n_cells,
                    bytes=len(payload),
                    firmware=self.obs_firmware,
                )
                _o.end(_sp, self.sim.now)
            endpoint.complete_send(desc)
            self.pdus_sent += 1

    # -- receive ------------------------------------------------------------
    # The i960 polls the network input FIFO (§4.2.2).  The loop runs as
    # a callback state machine, one step per i960 hold, so the i960
    # stays shared with the generator-based _tx_firmware.  A cell starts
    # its hold in the entry that hands it over (the fiber delivery, or
    # the end of the previous cell's hold), with no zero-delay hop.
    #
    # A train the switch claimed whole reaches _rx_train_sink in one
    # entry, at its first cell's arrival.  Its per-cell holds are a
    # Lindley recursion (_rx_start): cell i starts at max(arrival i,
    # end of cell i-1) and holds for i960_rx_per_cell_us; the run stops
    # before a cell that would find the FIFO full.  A train is one PDU,
    # so only its last cell can end one.  Only the run's last hold end
    # is an entry (_rx_train_end): the run enters the reassembler as
    # one slice of the train's CPCS bytes and the loop goes on from its
    # last cell, through _rx_pdu as usual.  No Cell is built unless a
    # cell goes back onto the per-cell path.  A train that arrives
    # while the loop is busy waits in _rx_pending until the loop finds
    # the FIFO empty.  Whatever else
    # reaches the receive side first -- the transmit firmware asking
    # for the i960, a per-cell arrival, or a route change withdrawing
    # cells -- calls _rx_settle, which hands the trains back to the
    # per-cell path as of that instant.
    def _rx_sink(self, cell: Cell) -> None:
        if self._rx_running is not None or self._rx_pending:
            self._rx_settle(arrival=True)
        if self._rx_busy:
            NetworkInterface._rx_sink(self, cell)
            return
        # An idle firmware takes the cell at once; the FIFO itself
        # stays empty.
        self._rx_busy = True
        fifo = self.input_fifo
        if _engine.access_hook is not None:
            _engine.access_hook(id(fifo), f"store:{fifo.name}", "w")
        _o = obs.active
        if _o is not None:
            _o.sample(self.sim._now, self._k_rxfifo_depth, 0, host=self.host.name)
        self._rx_cell(cell)

    def _rx_train_sink(self, train: CellTrain) -> None:
        """A claimed train, at its first cell's arrival."""
        train.settle = self._rx_settle
        self._rx_take(train, 0)

    def _rx_take(self, train: CellTrain, first: int) -> None:
        """Cells ``first..`` of ``train``, at the arrival of ``first``:
        run them now on an idle loop, queue them behind a busy one, or
        else receive this cell alone and offer the rest at the next
        arrival."""
        live = train.live
        if first >= live:
            return  # withdrawn by a route change
        if not self._rx_busy:
            if not self.i960.in_use and self._rx_fits(train, first):
                self._rx_busy = True
                self._rx_start(train, first, self.sim._now)
                return
        elif (
            len(self.input_fifo)
            + self._rx_backlog(train.arrivals_us[first])
            + live
            - first
            <= self.input_fifo.capacity
        ):
            # No cell of it can find the FIFO full before the loop gets
            # to it.
            self._rx_pending.append((train, first))
            return
        self._rx_sink(train.cell(first))
        if first + 1 < live:
            self.sim.schedule_callback_at(
                train.arrivals_us[first + 1], self._rx_take, train, first + 1
            )

    def _rx_fits(self, train: CellTrain, first: int) -> bool:
        """True if reassembling the cells cannot overflow their VCI."""
        reassembler = self.reassembler
        return (
            reassembler.pending_cells(train.vci) + train.live - first
            <= reassembler.max_cells
        )

    def _rx_backlog(self, at: float) -> int:
        """Cells of the held trains not started by ``at``."""
        waiting = sum(train.live - first for train, first in self._rx_pending)
        starts = self._rx_starts
        if starts is not None:
            waiting += len(starts) - bisect_left(starts, at)
        return waiting

    def _rx_start(self, train: CellTrain, first: int, free: float) -> None:
        """Run cells ``first..`` of ``train`` through the loop
        analytically, the i960 free for them from ``free`` on."""
        arrivals = train.arrivals_us
        hold = self.costs.i960_rx_per_cell_us
        capacity = self.input_fifo.capacity
        live = train.live
        starts = []
        waiting = 0  # first cell of the run that may not have started
        i = first
        while i < live:
            arrival = arrivals[i]
            queued = len(starts) - waiting
            if queued >= capacity:
                # The FIFO holds the cells that arrived and have not
                # started; one that starts on this float still counts.
                while queued and starts[waiting] < arrival:
                    waiting += 1
                    queued -= 1
                if queued >= capacity:
                    break
            if arrival > free:
                free = arrival
            starts.append(free)
            free += hold
            i += 1
        self._rx_running = train
        self._rx_first = first
        self._rx_starts = starts
        self.sim.schedule_callback_at(starts[-1] + hold, self._rx_train_end, starts)
        if i < live:
            self.sim.schedule_callback_at(arrivals[i], self._rx_take, train, i)

    def _rx_train_end(self, starts: List[float]) -> None:
        """The run's last hold ends: the run enters the reassembler and
        the loop goes on from its last cell."""
        if starts is not self._rx_starts:
            return  # settled onto the per-cell path meanwhile
        train = self._rx_running
        stop = self._rx_first + len(starts)
        self._rx_running = self._rx_starts = None
        pdu = self._rx_push_run(train, self._rx_first, stop)
        self._rx_pdu(train.vci, pdu, train.ends_pdu(stop), None, None)

    def _rx_push_run(
        self, train: CellTrain, first: int, stop: int
    ) -> Optional[bytes]:
        """Cells ``first..stop-1`` of ``train`` enter the reassembler as
        one byte slice."""
        return self.reassembler.push_run(
            train.vci, train.chunk(first, stop), train.ends_pdu(stop)
        )

    def _rx_settle(self, arrival: bool = False) -> None:
        """Hand the held cells back to the per-cell path as of now.

        Cells whose hold has ended enter the reassembler, the cell in
        its hold gets a real i960 hold ending on its float, cells that
        have arrived wait in the FIFO, and the rest are offered again
        at their arrivals.  A hold that ends or starts on this very
        float counts as done or started, unless the contact is itself
        a cell ``arrival``: per cell, a delivery was scheduled when the
        switch claimed it, so it ran before the loop's own step on the
        same float."""
        train = self._rx_running
        pending = self._rx_pending
        if train is None and not pending:
            return
        now = self.sim._now
        self._rx_pending = []
        if train is not None:
            first = self._rx_first
            starts = self._rx_starts
            self._rx_running = self._rx_starts = None
            hold = self.costs.i960_rx_per_cell_us
            after = nextafter(now, -inf) if arrival else now
            stop = min(first + len(starts), train.live)
            # The run's last hold end is an entry not yet fired, so that
            # cell is still in its hold even on its end float.
            last = first + len(starts) - 1
            i = first
            while i < stop and i < last and starts[i - first] + hold <= after:
                i += 1
            if i > first:
                self._rx_push_run(train, first, i)
            self._rx_busy = i < stop and starts[i - first] <= after
            if self._rx_busy:
                self.i960.hold_until(
                    starts[i - first] + hold,
                    self._rx_reassemble,
                    train.cell(i),
                    None,
                    None,
                )
                i += 1
            self._rx_release(train, i, stop, now)
        for train, first in pending:
            self._rx_release(train, first, train.live, now)

    def _rx_release(self, train: CellTrain, first: int, stop: int, now: float) -> None:
        """Cells ``first..stop-1``, not started: the ones that have
        arrived are received now, the rest offered again at their
        arrivals.  When cells from ``stop`` on are the rest of a run that
        stopped early, they already have their own offer, so these get
        plain deliveries."""
        arrivals = train.arrivals_us
        schedule_at = self.sim.schedule_callback_at
        for i in range(first, stop):
            if arrivals[i] <= now:
                self._rx_sink(train.cell(i))
            elif stop < train.live:
                for j in range(i, stop):
                    schedule_at(arrivals[j], self._rx_train_cell, train, j)
                return
            else:
                schedule_at(arrivals[i], self._rx_take, train, i)
                return

    def _rx_train_cell(self, train: CellTrain, i: int) -> None:
        if i < train.live:
            self._rx_sink(train.cell(i))

    def _rx_cell(self, cell: Cell) -> None:
        """Start one cell: the fixed per-cell i960 cost."""
        _o = obs.active
        _sp = (
            _o.begin(self.sim._now, "rx_cell", "ni_rx", host=self.host.name)
            if _o is not None
            else None
        )
        self.i960.hold(
            self.costs.i960_rx_per_cell_us, self._rx_reassemble, cell, _o, _sp
        )

    def _rx_reassemble(self, cell: Cell, _o, _sp) -> None:
        """Push the cell into AAL5 reassembly."""
        self._rx_pdu(cell.vci, self.reassembler.push(cell), cell.last, _o, _sp)

    def _rx_pdu(self, vci: int, pdu: Optional[bytes], last: bool, _o, _sp) -> None:
        """After a push that ``last`` says ended a PDU on ``vci``: a
        completed PDU gets a second i960 hold and is then delivered."""
        if pdu is None:
            if last and _o is not None:
                _o.count(self._k_rx_bad_pdu)
            self._rx_next(_o, _sp)
            return
        # A PDU of at most SINGLE_CELL_MAX bytes passes reassembly only
        # as a single cell (more cells fail the cell-count check), so
        # it is a single-cell receive.
        single = self.single_cell_optimization and len(pdu) <= SINGLE_CELL_MAX
        channel = self.mux.demux(vci)
        if channel is None:
            if _o is not None:
                _o.count(self._k_rx_unmatched)
            self._rx_next(_o, _sp)
            return
        if _sp is not None:
            _sp.name = "rx_single" if single else "rx_packet"
            _o.annotate(_sp, bytes=len(pdu), firmware=self.obs_firmware)
        cost, deliver, args = self._rx_dispatch(channel, pdu, single)
        self.i960.hold(cost, self._rx_deliver, deliver, args, _o, _sp)

    def _rx_dispatch(self, channel, pdu: bytes, single: bool) -> tuple:
        """Choose the i960 cost and the delivery call for a reassembled
        PDU: ``(cost_us, deliver, args)``, where ``args[0]`` is
        ``channel`` and ``deliver(*args)`` returns True once the message
        is queued for the endpoint."""
        if single:
            return self.costs.i960_rx_single_us, self._deliver_inline, (channel, pdu)
        return self.costs.i960_rx_packet_us, self._deliver_buffered, (channel, pdu)

    def _rx_deliver(self, deliver, args: tuple, _o, _sp) -> None:
        if args[0].endpoint.destroyed:
            # Destroyed during the completion hold: nobody to deliver to.
            if _o is not None:
                _o.count(self._k_rx_unmatched)
        elif deliver(*args):
            self.pdus_received += 1
        self._rx_next(_o, _sp)

    def _rx_next(self, _o, _sp) -> None:
        """Finish a cell and poll the FIFO for the next one."""
        if _sp is not None:
            _o.end(_sp, self.sim._now)
        cell = self.input_fifo.try_get()
        if cell is None and self._rx_pending:
            # The waiting train's cells come next.  The i960 is free
            # unless the transmit firmware was already waiting for it
            # when the train was queued.
            train, first = self._rx_pending[0]
            if not self.i960.in_use and self._rx_fits(train, first):
                del self._rx_pending[0]
                self._rx_start(train, first, self.sim._now)
                return
            self._rx_settle()
            cell = self.input_fifo.try_get()
        if cell is None:
            self._rx_busy = False
        else:
            self._rx_cell(cell)
