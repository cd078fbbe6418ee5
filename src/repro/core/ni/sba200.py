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

from bisect import bisect_left, bisect_right
from itertools import accumulate, islice, repeat
from math import inf, nextafter
from typing import List, Optional, Sequence

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


class _Run:
    """Cells of one train run through the receive loop in closed form.

    ``kept`` are the positions of the cells the input FIFO took, in
    order, ``starts`` the start float of each one's i960 hold and
    ``takes`` the float at which the loop took each one off the FIFO
    (``starts`` itself unless a transmit hold delayed a start);
    ``dropped`` are the positions of the cells that found the FIFO
    full.  ``tx`` is a transmit hold placed in the run, ``(start, end,
    cost, fn, args)``, until its end fires."""

    __slots__ = ("train", "kept", "starts", "takes", "dropped", "tx")

    def __init__(self, train, kept, starts, takes, dropped):
        self.train = train
        self.kept = kept
        self.starts = starts
        self.takes = takes
        self.dropped = dropped
        self.tx: Optional[tuple] = None


class _Waiting:
    """A train queued behind a busy loop: ``kept`` are its cells that
    have arrived and found room in the FIFO, and cells from position
    ``nxt`` on are not decided yet."""

    __slots__ = ("train", "kept", "nxt")

    def __init__(self, train: CellTrain, nxt: int):
        self.train = train
        self.kept: List[int] = []
        self.nxt = nxt


class Sba200UNet(NetworkInterface):
    """Base-level U-Net on re-programmed SBA-200 firmware."""

    #: Firmware identity recorded on obs spans (Fore overrides this).
    obs_firmware = "unet-sba200"

    __slots__ = (
        "costs",
        "i960",
        "single_cell_optimization",
        "_tx_until",
        "_rx_busy",
        "_rx_run",
        "_rx_pending",
        "_rx_open",
        "_rx_closed",
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
        #: The end of the transmit firmware's i960 hold, when it took a
        #: free i960 (a hold granted from the queue leaves it stale).
        self._tx_until = 0.0
        #: True from the moment a cell reaches the receive firmware until
        #: the FIFO is found empty after it.
        self._rx_busy = False
        #: The train being run in closed form, and the trains waiting
        #: behind the busy loop.
        self._rx_run: Optional[_Run] = None
        self._rx_pending: List[_Waiting] = []
        #: The first waiting train with cells not yet decided, and the
        #: cells kept by the trains before it.
        self._rx_open = 0
        self._rx_closed = 0
        port.set_rx_sink(self._rx_sink, self._rx_train_sink)

    # -- transmit ---------------------------------------------------------
    # One callback state machine per endpoint, as the receive loop is:
    # each step takes the (when, seq) slot the generator's send-ring
    # wait, i960 use and put_train event took.  The i960 request goes
    # through _tx_hold, so the NI can place it in a receive run.
    def _on_attach(self, endpoint: Endpoint) -> None:
        self.sim.schedule_callback(0.0, endpoint.take_send_then, self._tx_take, endpoint)

    def _gather(self, endpoint: Endpoint, desc: SendDescriptor) -> bytes:
        """The bytes put on the wire (direct access adds framing)."""
        return endpoint.gather(desc)

    def _tx_take(self, desc: SendDescriptor, endpoint: Endpoint) -> None:
        """Serve one send descriptor (the i960 polls these i960-resident
        queues without DMA, §4.2.2)."""
        channel = self._tx_channel(endpoint, desc)
        if channel is None:
            endpoint.take_send_then(self._tx_take, endpoint)
            return
        costs = self.costs
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
        self._tx_hold(
            cost, self._tx_sent, endpoint, desc, channel, payload, _o, _sp
        )

    def _tx_hold(self, cost: float, fn, *args) -> None:
        """The transmit firmware asks for the i960 for ``cost``, then
        ``fn(*args)``: the one contact between the two loops.  In a
        receive run the hold is placed in the run; otherwise it is a
        real hold."""
        run = self._rx_run
        if run is not None:
            if self._rx_run_tx(run, cost, fn, args):
                return
            self._rx_settle()
        if not self.i960.in_use and not self.i960.queued:
            self._tx_until = self.sim._now + cost
        self.i960.hold(cost, fn, *args)

    def _tx_sent(self, endpoint, desc, channel, payload, _o, _sp) -> None:
        # Segmentation and the CRC are per-PDU hardware work: the CPCS
        # bytes go down whole.  Paced by the outbound cell queue:
        # back-pressure propagates to the send ring when the fiber is
        # busy.  The whole AAL5 train goes down in one claim; the event
        # fires when the last cell has been admitted, same pacing as
        # per-cell puts.
        admitted = self.port.tx_link.put_train(channel.tx_vci, cpcs_encode(payload))
        admitted.callbacks.append(
            lambda _event: self._tx_done(endpoint, desc, len(payload), _o, _sp)
        )

    def _tx_done(self, endpoint, desc, nbytes: int, _o, _sp) -> None:
        if _sp is not None:
            _o.annotate(
                _sp,
                cells=cells_for_pdu(nbytes),
                bytes=nbytes,
                firmware=self.obs_firmware,
            )
            _o.end(_sp, self.sim.now)
        endpoint.complete_send(desc)
        self.pdus_sent += 1
        endpoint.take_send_then(self._tx_take, endpoint)

    # -- receive ------------------------------------------------------------
    # The i960 polls the network input FIFO (§4.2.2).  The loop runs as
    # a callback state machine, one step per i960 hold.  A cell starts
    # its hold in the entry that hands it over (the fiber delivery, or
    # the end of the previous cell's hold), with no zero-delay hop.
    #
    # A train the switch claimed whole reaches _rx_train_sink in one
    # entry, at its first cell's arrival.  Its per-cell holds are a
    # Lindley recursion (_rx_plan): the loop takes cell i off the FIFO
    # at max(arrival i, end of cell i-1) and starts it then, or when a
    # transmit hold ends; a cell that finds the FIFO full is dropped, as
    # NetworkInterface._rx_sink drops it, and is simply missing from the
    # run.  A train is one PDU, so only its last cell can end one.  Only
    # the run's last hold end is an entry (_rx_train_end): the run's
    # cells enter the reassembler as one chunk of the train's CPCS bytes
    # and the loop goes on through _rx_pdu as usual.  No Cell is built
    # unless a cell goes back onto the per-cell path.
    #
    # A train that arrives while the loop is busy waits in _rx_pending.
    # Its cells are taken off the FIFO only once the loop reaches the
    # train, so whether each found room is decided late (_rx_decide):
    # at every pop of the loop and at the end of a run, for the cells
    # that have arrived by then, from the FIFO's length and the run's
    # takes.  Between two of those points nothing leaves the FIFO.
    #
    # The transmit firmware asking for the i960 during a run gets a
    # hold placed in the run (_rx_run_tx): after the cell in its hold,
    # or at once in an idle gap, and the rest of the run is planned
    # again behind it.  Whatever else reaches the receive side -- a
    # per-cell arrival, a route change withdrawing cells, a transmit
    # request the run cannot place -- calls _rx_settle, which hands the
    # trains back to the per-cell path as of that instant.
    def _rx_sink(self, cell: Cell) -> None:
        if self._rx_run is not None or self._rx_pending:
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
        run them now on an idle loop, queue them behind a busy one, or,
        while the i960 is held for a time not known here or has a
        request queued, receive this cell alone and offer the rest at
        the next arrival."""
        if first >= train.live:
            return  # withdrawn by a route change
        now = self.sim._now
        if self._rx_busy:
            self._rx_pending.append(_Waiting(train, first))
            return
        i960 = self.i960
        if not i960.in_use:
            free = now
        elif self._tx_until > now and not i960.queued:
            # The run is planned behind the one hold, and every later
            # request is placed in it or settles it first: while it
            # runs nothing else queues for the i960.
            free = self._tx_until
        else:
            self._rx_sink(train.cell(first))
            if first + 1 < train.live:
                self.sim.schedule_callback_at(
                    train.arrivals_us[first + 1], self._rx_take, train, first + 1
                )
            return
        self._rx_busy = True
        self._rx_begin(self._rx_plan(train, [first], first + 1, now, free))

    def _rx_begin(self, run: _Run) -> None:
        self._rx_run = run
        self.sim.schedule_callback_at(
            run.starts[-1] + self.costs.i960_rx_per_cell_us, self._rx_train_end, run
        )

    def _rx_plan(
        self,
        train: CellTrain,
        kept: List[int],
        nxt: int,
        take: float,
        free: float,
    ) -> _Run:
        """Plan the loop through ``train``: the cells at ``kept`` have
        arrived and wait in the FIFO, and the cells from ``nxt`` on
        arrive in turn and find room or are dropped.  The loop takes the
        first of them no earlier than ``take`` and the i960 is free from
        ``free``.  An arrival on the float a cell is taken on still
        finds that cell in the FIFO."""
        arrivals = train.arrivals_us
        hold = self.costs.i960_rx_per_cell_us
        capacity = self.input_fifo.capacity
        first = arrivals[kept[0]] if kept else arrivals[nxt]
        take0 = first if first > take else take
        start = take0 if take0 > free else free
        if len(kept) > 1:
            # The waiting cells start back to back: each has arrived by
            # the time the loop gets to it.
            starts = list(accumulate(repeat(hold, len(kept)), initial=start))
            free = starts.pop()
        else:
            if not kept:
                kept.append(nxt)
                nxt += 1
            starts = [start]
            free = start + hold
        waiting = 0  # kept cells taken before the latest arrival counted
        live = train.live
        dropped: List[int] = []
        keep = kept.append
        begin = starts.append
        # A plain loop: C-level passes over the arrival gaps (to skip
        # arrival-bound or i960-bound tails) measured slower than it at
        # every train length on CPython 3.11.
        for p in range(nxt, live):
            arrival = arrivals[p]
            if arrival >= free:
                # The loop is idle, so the FIFO is empty.
                free = arrival
            elif len(kept) - waiting >= capacity:
                # Perhaps full: count out the cells taken before this
                # arrival.
                if not waiting and take0 < arrival:
                    waiting = 1
                if waiting:
                    waiting = bisect_left(starts, arrival, waiting)
                if len(kept) - waiting >= capacity:
                    dropped.append(p)
                    continue
            keep(p)
            begin(free)
            free += hold
        takes = starts if take0 == starts[0] else [take0] + starts[1:]
        return _Run(train, kept, starts, takes, dropped)

    def _rx_train_end(self, run: _Run) -> None:
        """The run's last hold ends: the run enters the reassembler and
        the loop goes on from its last cell."""
        if run is not self._rx_run:
            return  # settled onto the per-cell path, or planned again
        if self._rx_pending:
            self._rx_decide(self.sim._now)
        self._rx_run = None
        self.input_fifo_drops += len(run.dropped)
        train = run.train
        pdu = self._rx_push_run(train, run.kept)
        self._rx_pdu(train.vci, pdu, train.ends_pdu(run.kept[-1] + 1), None, None)

    def _rx_push_run(self, train: CellTrain, kept: Sequence[int]) -> Optional[bytes]:
        """The cells at positions ``kept`` of ``train`` enter the
        reassembler as one chunk."""
        return self.reassembler.push_run(
            train.vci, train.chunk(kept), train.ends_pdu(kept[-1] + 1)
        )

    def _rx_decide(self, now: float) -> None:
        """Whether each cell of the waiting trains that has arrived by
        ``now`` found room in the FIFO.  The FIFO holds the real cells
        in it, the run's cells not yet taken, and the waiting cells kept
        before.  Nothing else leaves the FIFO between two calls, so with
        no run the room stays fixed."""
        run = self._rx_run
        capacity = self.input_fifo.capacity
        queued = len(self.input_fifo) + self._rx_closed
        if run is not None:
            queued += len(run.kept)
            takes = run.takes
            taken = 0
        for waiting in islice(self._rx_pending, self._rx_open, None):
            train = waiting.train
            arrivals = train.arrivals_us
            lo = waiting.nxt
            hi = bisect_right(arrivals, now, lo, train.live)
            kept = waiting.kept
            queued += len(kept)
            if run is None:
                new = max(min(capacity - queued, hi - lo), 0)
                kept.extend(range(lo, lo + new))
            else:
                new = 0
                for p in range(lo, hi):
                    if queued + new - taken >= capacity:
                        taken = bisect_left(takes, arrivals[p], taken)
                        if queued + new - taken >= capacity:
                            continue
                    kept.append(p)
                    new += 1
            waiting.nxt = hi
            queued += new
            self.input_fifo_drops += hi - lo - new
            if hi < train.live:
                break  # the trains behind it have not arrived yet
            self._rx_open += 1
            self._rx_closed += len(kept)

    def _rx_run_tx(self, run: _Run, cost: float, fn, args: tuple) -> bool:
        """Place a transmit hold of ``cost`` in ``run``: after the cell
        in its hold, or at once in an idle gap, as the i960's queue
        would grant it.  The rest of the run is planned again behind it
        and ``fn(*args)`` is called at its end.  A step on this float
        counts as done.  False when the run has a transmit hold already,
        has not started its first cell, or is in its last cell's hold."""
        if run.tx is not None:
            return False
        now = self.sim._now
        kept = run.kept
        m = bisect_right(run.starts, now) - 1
        if m < 0 or m == len(kept) - 1:
            return False
        end = run.starts[m] + self.costs.i960_rx_per_cell_us
        start = end if end > now else now
        tx_end = start + cost
        train = run.train
        arrived = bisect_right(train.arrivals_us, now, kept[m], train.live)
        d = m + 1
        waiting = kept[d : bisect_left(kept, arrived, d)]
        rest = self._rx_plan(train, waiting, arrived, end, tx_end)
        planned = _Run(
            train,
            kept[:d] + rest.kept,
            run.starts[:d] + rest.starts,
            run.takes[:d] + rest.takes,
            run.dropped[: bisect_left(run.dropped, arrived)] + rest.dropped,
        )
        planned.tx = (start, tx_end, cost, fn, args)
        self.sim.schedule_callback_at(tx_end, self._rx_tx_end, planned)
        self._rx_begin(planned)
        return True

    def _rx_tx_end(self, run: _Run) -> None:
        """A transmit hold placed in a run ends, unless a settle made it
        a real hold."""
        tx = run.tx
        if tx is not None:
            run.tx = None
            tx[3](*tx[4])

    def _rx_settle(self, arrival: bool = False) -> None:
        """Hand the trains back to the per-cell path as of now.

        Decided cells of the waiting trains go into the FIFO.  Of the
        run, cells whose hold has ended enter the reassembler, the cell
        in its hold gets a real i960 hold ending on its float, a
        transmit hold placed in the run becomes a real one, a cell taken
        off the FIFO and waiting for the i960 queues for it, cells that
        have arrived wait in the FIFO, and the rest are offered again at
        their arrivals.  A hold that ends or starts on this very float
        counts as done or started, unless the contact is itself a cell
        ``arrival``: per cell, a delivery was scheduled when the switch
        claimed it, so it ran before the loop's own step on the same
        float."""
        run = self._rx_run
        pending = self._rx_pending
        if run is None and not pending:
            return
        now = self.sim._now
        if pending:
            self._rx_decide(now)
            self._rx_pending = []
            self._rx_open = self._rx_closed = 0
        if run is not None:
            self._rx_run = None
            self._rx_release(run, nextafter(now, -inf) if arrival else now)
        schedule_at = self.sim.schedule_callback_at
        for waiting in pending:
            train = waiting.train
            for p in waiting.kept:
                NetworkInterface._rx_sink(self, train.cell(p))
            if waiting.nxt < train.live:
                schedule_at(
                    train.arrivals_us[waiting.nxt], self._rx_take, train, waiting.nxt
                )

    def _rx_release(self, run: _Run, after: float) -> None:
        """:meth:`_rx_settle` for the run, steps up to ``after`` done."""
        now = self.sim._now
        train = run.train
        kept = run.kept
        starts = run.starts
        hold = self.costs.i960_rx_per_cell_us
        i960 = self.i960
        arrived = bisect_right(train.arrivals_us, now, kept[0], train.live)
        self.input_fifo_drops += bisect_left(run.dropped, arrived)
        # The run's last hold end is an entry not yet fired, so that
        # cell is still in its hold even on its end float.
        i = bisect_right(starts, after, 0, len(kept) - 1, key=lambda s: s + hold)
        if i:
            self._rx_push_run(train, kept[:i])
        tx = run.tx
        run.tx = None
        busy = False
        if i < len(kept) and starts[i] <= after and (tx is None or tx[0] > after):
            cell = train.cell(kept[i])
            if i960.in_use:
                # The transmit hold the run was planned behind ends on
                # this float, with nothing queued (see _rx_take).
                i960.hold(hold, self._rx_reassemble, cell, None, None)
            else:
                i960.hold_until(starts[i] + hold, self._rx_reassemble, cell, None, None)
            busy = True
            i += 1
        if tx is not None:
            start, tx_end, cost, fn, args = tx
            if start > after:
                i960.hold(cost, fn, *args)
            else:
                self._tx_until = tx_end
                i960.hold_until(tx_end, fn, *args)
        if i < len(kept) and run.takes[i] <= after:
            # Taken off the FIFO, waiting for the i960.
            i960.hold(hold, self._rx_reassemble, train.cell(kept[i]), None, None)
            busy = True
            i += 1
        self._rx_busy = busy
        for p in kept[i:]:
            if p >= arrived:
                break
            NetworkInterface._rx_sink(self, train.cell(p))
        if arrived < train.live:
            self.sim.schedule_callback_at(
                train.arrivals_us[arrived], self._rx_take, train, arrived
            )

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
        now = self.sim._now
        if _sp is not None:
            _o.end(_sp, now)
        pending = self._rx_pending
        if pending:
            self._rx_decide(now)
        cell = self.input_fifo.try_get()
        if cell is None and pending:
            if self.i960.in_use:
                # Granted to the transmit firmware for a time not known
                # here: the waiting trains go cell by cell.
                self._rx_settle()
                cell = self.input_fifo.try_get()
            else:
                # The waiting trains' cells come next.
                while pending:
                    waiting = pending.pop(0)
                    if self._rx_open:
                        self._rx_open -= 1
                        self._rx_closed -= len(waiting.kept)
                    train = waiting.train
                    if waiting.kept:
                        self._rx_begin(
                            self._rx_plan(train, waiting.kept, waiting.nxt, now, now)
                        )
                        return
                    if waiting.nxt < train.live:
                        # Every cell so far was dropped, and the rest
                        # has not arrived: offer it when it does.
                        self.sim.schedule_callback_at(
                            train.arrivals_us[waiting.nxt],
                            self._rx_take,
                            train,
                            waiting.nxt,
                        )
                        break
        if cell is None:
            self._rx_busy = False
        else:
            self._rx_cell(cell)
