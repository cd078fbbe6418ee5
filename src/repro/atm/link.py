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
Every claim, one cell's or a whole PDU's, runs through one method
(:meth:`Link._claim_at`); a PDU's claims at one instant are one
``accumulate`` pass.  An AAL5 PDU submitted via :meth:`put_train`
costs a single heap entry when the receiving end is train-aware, and
travels as its CPCS bytes (:class:`CellTrain`): a :class:`Cell` is
built only for a cell delivered on its own.  The timestamps are
identical to per-cell simulation (``fast_path=False`` forces the
per-cell schedule and is asserted equal in tests).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from math import inf
from operator import add, mul
from typing import Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.atm.aal5 import cpcs_cell
from repro.atm.cell import ATM_CELL_SIZE, ATM_PAYLOAD_SIZE, MAX_VCI, Cell
from repro.sim import Event, Simulator
from repro.sim import engine as _engine

#: 140 Mbit/s TAXI fiber used throughout the paper's testbed.
TAXI_140_BPS = 140_000_000.0
#: Classic 10 Mbit/s Ethernet, for the Figure 6 baseline.
ETHERNET_10_BPS = 10_000_000.0


class CellTrain:
    """One AAL5 PDU in flight as a back-to-back burst of cells.

    The train carries the PDU's VCI and its CPCS bytes (payload,
    padding, trailer and CRC, built once per PDU), the indices of the
    cells it still carries (``indices``; a switch output queue may have
    dropped some) and their arrival floats: the cell at position ``i``
    is cell ``indices[i]`` of the PDU and arrives at ``arrivals_us[i]``.
    A :class:`Cell` is built (:meth:`cell`) only for a cell that goes
    down a per-cell path.

    Two sinks are train-aware.  The switch input accepts a host's train
    in one heap entry and forwards it itself.  A switch output whose
    train was claimed whole hands the admitted cells to the receiving
    SBA-200 in one entry, and its receive loop runs them analytically,
    taking runs of cells into reassembly as byte slices (:meth:`chunk`);
    a cell its input FIFO drops is missing from the run, as one the
    switch's output queue drops is missing from ``indices``.
    Every other receiver gets plain per-cell deliveries.  The arrival
    floats are exactly the ones the per-cell path would schedule, so a
    train is bit-identical to per-cell simulation.

    ``live`` is the number of leading cells that still stand: a route
    change that withdraws the tail lowers it.  A sink that holds the
    train analytically sets ``settle``, which is called with no
    arguments after ``live`` drops.
    """

    __slots__ = ("vci", "cpcs", "indices", "arrivals_us", "live", "settle")

    def __init__(
        self, vci: int, cpcs: bytes, indices: Sequence[int], arrivals_us: List[float]
    ):
        self.vci = vci
        self.cpcs = cpcs
        self.indices = indices
        self.arrivals_us = arrivals_us
        self.live = len(indices)
        self.settle: Optional[Callable[[], None]] = None

    def __len__(self) -> int:
        return len(self.indices)

    def cell(self, i: int) -> Cell:
        """The cell at position ``i``, as segmentation built it."""
        return cpcs_cell(self.cpcs, self.vci, self.indices[i])

    def chunk(self, positions: Sequence[int]) -> bytes:
        """The payloads of the cells at ``positions`` (increasing),
        joined: one slice of the CPCS unless a cell between them was
        dropped."""
        indices = self.indices
        lo = indices[positions[0]]
        hi = indices[positions[-1]] + 1
        cpcs = self.cpcs
        if hi - lo == len(positions):
            return cpcs[lo * ATM_PAYLOAD_SIZE : hi * ATM_PAYLOAD_SIZE]
        offsets = list(
            map(mul, map(indices.__getitem__, positions), repeat(ATM_PAYLOAD_SIZE))
        )
        ends = map(add, offsets, repeat(ATM_PAYLOAD_SIZE))
        return b"".join(map(cpcs.__getitem__, map(slice, offsets, ends)))

    def ends_pdu(self, stop: int) -> bool:
        """True if the cell at position ``stop - 1`` ends the PDU."""
        return (self.indices[stop - 1] + 1) * ATM_PAYLOAD_SIZE == len(self.cpcs)


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
        self._starts: List[float] = []
        # Metric keys are built once here: _claim_at()/_finish_cell()
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
    def _claim_at(
        self,
        instants: Sequence[float],
        capacity: float,
        lead: float = 0.0,
        lag: float = 0.0,
    ) -> Tuple[Sequence[int], List[float]]:
        """Claim the next serialization slot as of each of ``instants``
        in turn, each plus ``lead``; a cell that finds ``capacity``
        cells queued is dropped.  Returns the positions of the admitted
        cells and their serialization finish floats plus ``lag``.

        Every claim runs here, so the access hook and obs see each one.
        A cell whose serialization began at or before its instant is in
        service, not queued, exactly like the old pump's Store; the
        cells of one put share an instant and are queued together.
        Unwatched claims with room for all of them drop nothing, so
        only their slots are computed, with the same additions in the
        same order as the loop at the end: claims at one instant (every
        host link's ``put_train``) in one ``accumulate`` pass, others in
        a loop with no checks left in it."""
        hook = _engine.access_hook
        _o = obs.active
        starts = self._starts
        cell_us = self._cell_us
        busy = self._busy_until
        n = len(instants)
        if n and hook is None and _o is None:
            first = instants[0] + lead
            stale = bisect_right(starts, first)
            if len(starts) - stale + n <= capacity:
                # Room for every cell, so none is dropped, and nothing
                # is watching: only the slots are left to compute.
                del starts[:stale]
                last = instants[-1] + lead
                if first == last:
                    if busy < first:
                        busy = first
                    if n == 1:
                        starts.append(busy)
                        self._busy_until = busy = busy + cell_us
                        return range(1), [busy + lag]
                    slots = list(accumulate(repeat(cell_us, n), initial=busy))
                    self._busy_until = busy = slots.pop()
                    starts.extend(slots)
                    del slots[0]
                    slots.append(busy)
                    if lag:
                        return range(n), [finish + lag for finish in slots]
                    return range(n), slots
                # The loop's last prune is at its first claim as of the
                # last instant.
                hi = len(starts) + bisect_left(instants, instants[-1])
                queue = starts.append
                finishes = []
                finish = finishes.append
                for now in instants:
                    now += lead
                    if busy < now:
                        busy = now
                    queue(busy)
                    busy += cell_us
                    finish(busy + lag)
                del starts[: bisect_right(starts, last, 0, hi)]
                self._busy_until = busy
                return range(n), finishes
        queue = starts.append
        finishes = []
        finish = finishes.append
        dropped: List[int] = []
        queued = len(starts)
        head = 0
        pruned = None
        for now in instants:
            now += lead
            if now != pruned:
                while queued and starts[head] <= now:
                    head += 1
                    queued -= 1
                pruned = now
            if queued >= capacity:
                if hook is not None:
                    hook(id(self), f"link:{self.name}", "r")
                dropped.append(len(finishes) + len(dropped))
                if _o is not None:
                    _o.count(self._k_txq_drop)
                continue
            if hook is not None:
                hook(id(self), f"link:{self.name}", "w")
            if busy < now:
                busy = now
            queue(busy)
            queued += 1
            if _o is not None:
                # The link is analytic, so wire occupancy is known in
                # closed form at claim time: serialization plus
                # propagation.  (On lossy links a claimed cell may still
                # be dropped at the serialization end; the span then
                # overstates by one flight.)
                end = busy + cell_us
                _o.add_complete(
                    busy, end + self.propagation_us, "cell", "wire", host=self.name
                )
                # busy_us accumulates serialization time; dividing by
                # the span of the run gives link utilization.
                _o.observe(self._k_txq, queued)
                _o.count(self._k_busy, end - busy)
            busy += cell_us
            finish(busy + lag)
        del starts[:head]
        self._busy_until = busy
        if not dropped:
            return range(len(finishes)), finishes
        self.cells_dropped += len(dropped)
        lost = set(dropped)
        return [i for i in range(n) if i not in lost], finishes

    def _schedule_cell(self, cell: Cell, finish: float) -> None:
        """Schedule a claimed cell that travels on its own."""
        if self.loss_fn is not None or not self.fast_path:
            # Per-cell path: the serialization end is observable (loss
            # decision, counters) and must fire at the right sim time.
            self.sim.schedule_callback_at(finish, self._finish_cell, cell)
        else:
            self.cells_sent += 1
            self.bytes_sent += ATM_CELL_SIZE
            self.sim.schedule_callback_at(
                finish + self.propagation_us, self._deliver_cell, cell
            )

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
        instant) may claim ahead of time.
        """
        admitted, finishes = self._claim_at((now,), self.capacity)
        if not admitted:
            return False
        self._schedule_cell(cell, finishes[0])
        return True

    def send_train_at(
        self, instants: Sequence[float], lead: float
    ) -> Tuple[Sequence[int], List[float]]:
        """:meth:`send_at` for one cell as of each of ``instants`` plus
        ``lead``, in one pass on the fast path, scheduling nothing.
        Returns the positions of the admitted cells and their arrival
        floats at the far end; the caller schedules their delivery (or,
        replaying after :meth:`rewind`, does not).

        Claiming ahead is exact only if the instants are in order and
        no other claim on this link falls before the last of them.  The
        link must be on its fast path with no loss function.
        """
        admitted, arrivals = self._claim_at(
            instants, self.capacity, lead, self.propagation_us
        )
        self.cells_sent += len(admitted)
        self.bytes_sent += ATM_CELL_SIZE * len(admitted)
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
        self._starts = list(starts)

    def put(self, cell: Cell) -> Event:
        """Blocking enqueue: returns an event that triggers once the cell
        fits in the transmit queue.  Used by NI models that pace
        themselves to the wire instead of dropping."""
        now = self.sim._now
        _, finishes = self._claim_at((now,), inf)
        self._schedule_cell(cell, finishes[0])
        return self._admitted(now)

    def put_train(self, vci: int, cpcs: bytes) -> Event:
        """:meth:`put` for every cell of the AAL5 PDU whose CPCS bytes
        are ``cpcs``, tagged with ``vci``: triggers when the last cell
        has been admitted to the transmit queue (identical pacing to
        calling :meth:`put` per cell, computed in one pass).

        When the fast path is on, no loss function is attached, and the
        receiver is train-aware, the whole PDU costs one heap entry and
        no :class:`Cell` is built.
        """
        if not 0 <= vci <= MAX_VCI:
            raise ValueError(f"VCI out of range: {vci}")
        n = len(cpcs) // ATM_PAYLOAD_SIZE
        now = self.sim._now
        instants = [now] * n
        if (
            n > 1
            and self._train_sink is not None
            and self.loss_fn is None
            and self.fast_path
        ):
            # One heap entry for the whole burst, carrying the exact
            # per-cell arrival floats the per-cell path would use.
            _, arrivals = self._claim_at(instants, inf, 0.0, self.propagation_us)
            self.cells_sent += n
            self.bytes_sent += ATM_CELL_SIZE * n
            self.trains_sent += 1
            train = CellTrain(vci, cpcs, range(n), arrivals)
            self.sim.schedule_callback_at(arrivals[0], self._deliver_train, train)
        else:
            _, finishes = self._claim_at(instants, inf)
            for i, finish in enumerate(finishes):
                self._schedule_cell(cpcs_cell(cpcs, vci, i), finish)
        return self._admitted(now)

    def _admitted(self, now: float) -> Event:
        """The event of a put made at ``now``, just claimed.

        A cell is admitted the instant the head-of-queue cell ahead of
        it starts serializing and frees a queue slot.  Start times only
        grow, so the last cell's admission is the latest: triggered at
        that exact analytic float, not now + delta."""
        starts = self._starts
        last_queued = len(starts) - 1
        capacity = self.capacity
        last_admit = (
            starts[last_queued - int(capacity)] if last_queued >= capacity else now
        )
        event = Event(self.sim)
        event._ok = True
        self.sim._schedule_event_at(event, last_admit)
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
