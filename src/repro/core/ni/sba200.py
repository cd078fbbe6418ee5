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

from typing import Optional

from repro import obs
from repro.atm.aal5 import cells_for_pdu, segment_pdu
from repro.atm.cell import Cell
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
            yield from self.i960.use(cost)
            cells = segment_pdu(payload, channel.tx_vci)
            # Paced by the outbound cell queue: back-pressure propagates
            # to the send ring when the fiber is busy.  The whole AAL5
            # train goes down in one claim; the event fires when the
            # last cell has been admitted, same pacing as per-cell puts.
            yield self.port.tx_link.put_train(cells)
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
    def _rx_sink(self, cell: Cell) -> None:
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
        """Push the cell into AAL5 reassembly; a completed PDU gets a
        second i960 hold and is then delivered."""
        first_of_pdu = self.reassembler.pending_cells(cell.vci) == 0
        pdu = self.reassembler.push(cell)
        if pdu is None:
            if cell.last and _o is not None:
                _o.count(self._k_rx_bad_pdu)
            self._rx_next(_o, _sp)
            return
        single = (
            self.single_cell_optimization
            and first_of_pdu
            and cell.last
            and len(pdu) <= SINGLE_CELL_MAX
        )
        channel = self.mux.demux(cell.vci)
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
        PDU: ``(cost_us, deliver, args)``, where ``deliver(*args)``
        returns True once the message is queued for the endpoint."""
        if single:
            return self.costs.i960_rx_single_us, self._deliver_inline, (channel, pdu)
        return self.costs.i960_rx_packet_us, self._deliver_buffered, (channel, pdu)

    def _rx_deliver(self, deliver, args: tuple, _o, _sp) -> None:
        if deliver(*args):
            self.pdus_received += 1
        self._rx_next(_o, _sp)

    def _rx_next(self, _o, _sp) -> None:
        """Finish a cell and poll the FIFO for the next one."""
        if _sp is not None:
            _o.end(_sp, self.sim._now)
        cell = self.input_fifo.try_get()
        if cell is None:
            self._rx_busy = False
        else:
            self._rx_cell(cell)
