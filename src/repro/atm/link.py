"""Point-to-point fiber link model.

A :class:`Link` is a unidirectional pipe with finite bandwidth and a
fixed propagation delay.  Cells are serialized: each occupies the link
for ``53 * 8 / bandwidth`` seconds, and back-to-back cells pipeline (the
paper's ~6 us/cell round-trip increment is two link serializations).

A loss function can be attached to model the dropped-cell scenarios of
§7.8; dropping any cell of an AAL5 PDU kills the whole PDU downstream.

The link is modelled *analytically*: instead of a pump process that
wakes up once per cell, admission and serialization times are computed
in closed form when a cell is claimed, and only the externally visible
occurrences (serialization end when a loss function needs to see it,
delivery at the far end) are scheduled — as bare callbacks, not events.
A whole AAL5 cell train submitted via :meth:`put_train` costs a single
heap entry when the receiving end is train-aware.  The timestamps are
identical to per-cell simulation (``fast_path=False`` forces the
per-cell schedule and is asserted equal in tests).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.atm.cell import ATM_CELL_SIZE, Cell
from repro.sim import Event, Simulator
from repro.sim import engine as _engine

#: 140 Mbit/s TAXI fiber used throughout the paper's testbed.
TAXI_140_BPS = 140_000_000.0
#: Classic 10 Mbit/s Ethernet, for the Figure 6 baseline.
ETHERNET_10_BPS = 10_000_000.0


class CellTrain:
    """A back-to-back burst of cells with an analytic arrival schedule.

    Cell ``i`` arrives at ``arrivals_us[i]``.  Two sinks are
    train-aware.  The switch input accepts a host's train in one heap
    entry and forwards it itself.  A switch output whose train was
    claimed whole hands the admitted cells to the receiving SBA-200 in
    one entry, and its receive loop runs them analytically.  Every
    other receiver gets plain per-cell deliveries.  The arrival floats
    are exactly the ones the per-cell path would schedule, so a train
    is bit-identical to per-cell simulation.

    ``live`` is the number of leading cells that still stand: a route
    change that withdraws the tail lowers it.  A sink that holds the
    train analytically sets ``settle``, which is called with no
    arguments after ``live`` drops.
    """

    __slots__ = ("cells", "arrivals_us", "live", "settle")

    def __init__(self, cells: List[Cell], arrivals_us: List[float]):
        self.cells = cells
        self.arrivals_us = arrivals_us
        self.live = len(cells)
        self.settle: Optional[Callable[[], None]] = None

    def __len__(self) -> int:
        return len(self.cells)


class Link:
    """Unidirectional serialized link delivering cells to a sink callable."""

    __slots__ = (
        "sim",
        "bandwidth_bps",
        "propagation_us",
        "name",
        "loss_fn",
        "_sink",
        "_train_sink",
        "capacity",
        "fast_path",
        "cells_sent",
        "cells_dropped",
        "bytes_sent",
        "trains_sent",
        "_cell_us",
        "_busy_until",
        "_starts",
        "_k_txq",
        "_k_busy",
        "_k_txq_drop",
        "_k_loss",
    )

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = TAXI_140_BPS,
        propagation_us: float = 0.3,
        name: str = "link",
        loss_fn: Optional[Callable[[Cell], bool]] = None,
        queue_cells: float = float("inf"),
        fast_path: bool = True,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_us < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.propagation_us = propagation_us
        self.name = name
        self.loss_fn = loss_fn
        self._sink: Optional[Callable[[Cell], None]] = None
        self._train_sink: Optional[Callable[[CellTrain], None]] = None
        self.capacity = queue_cells
        self.fast_path = fast_path
        self.cells_sent = 0
        self.cells_dropped = 0
        self.bytes_sent = 0
        self.trains_sent = 0
        # Analytic serialization state: when the wire frees up, and the
        # serialization-start time of every claimed-but-unstarted cell
        # (pruned lazily; a cell whose serialization has started is "in
        # service", not queued, exactly like the old pump's Store).
        # Every cell is 53 bytes on the wire, so its serialization time
        # is a per-link constant.
        self._cell_us = ATM_CELL_SIZE * 8 / bandwidth_bps * 1e6
        self._busy_until = 0.0
        self._starts: deque = deque()
        # Metric keys are built once here: _claim()/send()/_finish_cell()
        # run per cell on the event hot path and must not re-format
        # strings.  Queue overflow and injected loss are separate causes.
        self._k_txq = f"link.{name}.txq_depth"
        self._k_busy = f"link.{name}.busy_us"
        self._k_txq_drop = f"link.{name}.txq_drop"
        self._k_loss = f"link.{name}.loss"

    def connect(
        self,
        sink: Callable[[Cell], None],
        train_sink: Optional[Callable[[CellTrain], None]] = None,
    ) -> None:
        """Attach the receiving end; must be called before traffic flows.

        ``train_sink``, when given, receives whole :class:`CellTrain`
        batches in one event instead of per-cell deliveries: those of
        :meth:`put_train`, or, on a switch output, the trains the switch
        claims whole."""
        self._sink = sink
        self._train_sink = train_sink

    def set_queue_capacity(self, cells: float) -> None:
        """Resize the transmit queue (NI models bound it to their FIFO depth)."""
        if cells <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = cells

    # -- admission ------------------------------------------------------
    def _claim(self, cell: Cell, now: float) -> float:
        """Claim the next serialization slot; returns the finish time.

        The caller has already pruned ``_starts`` of every cell whose
        serialization began at or before ``now``."""
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"link:{self.name}", "w")
        start = self._busy_until
        if start < now:
            start = now
        finish = start + self._cell_us
        self._busy_until = finish
        starts = self._starts
        starts.append(start)
        _o = obs.active
        if _o is not None:
            # The link is analytic, so wire occupancy is known in closed
            # form at claim time: serialization plus propagation.  (On
            # lossy links a claimed cell may still be dropped at the
            # serialization end; the span then overstates by one flight.)
            _o.add_complete(
                start, finish + self.propagation_us, "cell", "wire", host=self.name
            )
            # busy_us accumulates serialization time; dividing by the
            # span of the run gives link utilization in the report.
            _o.observe(self._k_txq, len(starts))
            _o.count(self._k_busy, finish - start)
        return finish

    # -- producer API ---------------------------------------------------
    def send(self, cell: Cell) -> bool:
        """Enqueue a cell for transmission.

        Returns False if the transmit queue overflowed (cell dropped).
        """
        return self.send_at(cell, self.sim._now)

    def send_at(self, cell: Cell, now: float) -> bool:
        """:meth:`send` as of the instant ``now`` (no earlier than the
        current time).

        The link state is a function of the claims in order, so a
        producer whose claims are made in the order of their instants
        (the switch, which claims at crossbar entry for the exit
        instant) may claim ahead of time.  This is the per-cell path of
        every switch output, so the prune and the schedule are inlined
        around the shared claim.
        """
        sim = self.sim
        starts = self._starts
        while starts and starts[0] <= now:
            starts.popleft()
        if len(starts) >= self.capacity:
            if _engine.access_hook is not None:
                _engine.access_hook(id(self), f"link:{self.name}", "r")
            self.cells_dropped += 1
            _o = obs.active
            if _o is not None:
                _o.count(self._k_txq_drop)
            return False
        finish = self._claim(cell, now)
        if self.loss_fn is not None or not self.fast_path:
            # Per-cell path: the serialization end is observable (loss
            # decision, counters) and must fire at the right sim time.
            sim.schedule_callback_at(finish, self._finish_cell, cell)
        else:
            self.cells_sent += 1
            self.bytes_sent += ATM_CELL_SIZE
            sim.schedule_callback_at(
                finish + self.propagation_us, self._deliver_cell, cell
            )
        return True

    def send_train_at(
        self, cells: Sequence[Cell], instants: Sequence[float]
    ) -> Tuple[List[int], List[float]]:
        """:meth:`send_at` for ``cells[i]`` as of ``instants[i]``, in one
        pass on the fast path, scheduling nothing.  Returns the indices
        of the admitted cells and their arrival floats at the far end;
        the caller schedules their delivery (or, replaying after
        :meth:`rewind`, does not).

        Claiming ahead is exact only if the instants are in order and
        no other claim on this link falls before the last of them.  The
        link must be on its fast path with no loss function.
        """
        starts = self._starts
        capacity = self.capacity
        claim = self._claim
        propagation = self.propagation_us
        admitted: List[int] = []
        arrivals: List[float] = []
        for i, now in enumerate(instants):
            while starts and starts[0] <= now:
                starts.popleft()
            if len(starts) >= capacity:
                continue
            admitted.append(i)
            arrivals.append(claim(cells[i], now) + propagation)
        self.cells_sent += len(admitted)
        self.bytes_sent += ATM_CELL_SIZE * len(admitted)
        self.cells_dropped += len(instants) - len(admitted)
        return admitted, arrivals

    def claim_state(self) -> tuple:
        """Everything a claim changes, for :meth:`rewind`."""
        return (
            self._busy_until,
            tuple(self._starts),
            self.cells_sent,
            self.bytes_sent,
            self.cells_dropped,
        )

    def rewind(self, state: tuple) -> None:
        """Undo every claim made since :meth:`claim_state` returned
        ``state``."""
        (
            self._busy_until,
            starts,
            self.cells_sent,
            self.bytes_sent,
            self.cells_dropped,
        ) = state
        self._starts = deque(starts)

    def put(self, cell: Cell) -> Event:
        """Blocking enqueue: returns an event that triggers once the cell
        fits in the transmit queue.  Used by NI models that pace
        themselves to the wire instead of dropping."""
        return self.put_train((cell,))

    def put_train(self, cells: Sequence[Cell]) -> Event:
        """Enqueue a back-to-back burst; triggers when the last cell has
        been admitted to the transmit queue (identical pacing to calling
        :meth:`put` per cell, computed in one pass).

        When the fast path is on, no loss function is attached, and the
        receiver is train-aware, the whole burst costs one heap entry.
        """
        sim = self.sim
        event = Event(sim)
        if not cells:
            return event.succeed()
        now = sim._now
        starts = self._starts
        while starts and starts[0] <= now:
            starts.popleft()
        claim = self._claim
        finishes = [claim(cell, now) for cell in cells]
        # A cell is admitted the instant the head-of-queue cell ahead of
        # it starts serializing and frees a queue slot.  Start times only
        # grow, so the last cell's admission is the latest: triggered at
        # that exact analytic float, not now + delta.
        last_queued = len(starts) - 1
        capacity = self.capacity
        last_admit = (
            starts[last_queued - int(capacity)] if last_queued >= capacity else now
        )
        if self.loss_fn is not None or not self.fast_path:
            for cell, finish in zip(cells, finishes):
                sim.schedule_callback_at(finish, self._finish_cell, cell)
        else:
            self.cells_sent += len(cells)
            self.bytes_sent += ATM_CELL_SIZE * len(cells)
            propagation = self.propagation_us
            if self._train_sink is not None and len(cells) > 1:
                # One heap entry for the whole burst, carrying the exact
                # per-cell arrival floats the per-cell path would use.
                self.trains_sent += 1
                arrivals = [finish + propagation for finish in finishes]
                train = CellTrain(list(cells), arrivals)
                sim.schedule_callback_at(arrivals[0], self._deliver_train, train)
            else:
                for cell, finish in zip(cells, finishes):
                    sim.schedule_callback_at(
                        finish + propagation, self._deliver_cell, cell
                    )
        event._ok = True
        sim._schedule_event_at(event, last_admit)
        return event

    # -- scheduled occurrences -----------------------------------------
    def _finish_cell(self, cell: Cell) -> None:
        self.cells_sent += 1
        self.bytes_sent += ATM_CELL_SIZE
        if self.loss_fn is not None and self.loss_fn(cell):
            self.cells_dropped += 1
            _o = obs.active
            if _o is not None:
                _o.count(self._k_loss)
            return
        self.sim.schedule_callback(self.propagation_us, self._deliver_cell, cell)

    def _deliver_cell(self, cell: Cell) -> None:
        sink = self._sink
        if sink is None:
            raise RuntimeError(f"link {self.name!r} has no sink connected")
        sink(cell)

    def _deliver_train(self, train: CellTrain) -> None:
        train_sink = self._train_sink
        if train_sink is None:
            raise RuntimeError(f"link {self.name!r} has no sink connected")
        train_sink(train)
