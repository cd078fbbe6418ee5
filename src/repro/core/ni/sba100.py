"""U-Net on the Fore SBA-100: programmed I/O through kernel traps (§4.1).

The SBA-100 has no on-board processor, no DMA, and no AAL5 CRC
hardware, so the U-Net architecture runs *in the kernel*: hand-crafted
fast traps send and receive individual cells, and a library performs
AAL5 segmentation/reassembly -- including the CRC-32 in software, which
is why 33%/40% of the send/receive AAL5 overheads are CRC (Table 1).

All processing is charged to the *host* CPU (clock-scaled), unlike the
SBA-200 model where the i960 does the work.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.atm.aal5 import cells_for_pdu, segment_pdu
from repro.atm.network import NetworkPort
from repro.core.descriptors import SINGLE_CELL_MAX
from repro.core.endpoint import Endpoint
from repro.core.ni.base import NetworkInterface
from repro.core.ni.costs import Sba100Costs
from repro.host import Workstation


class Sba100UNet(NetworkInterface):
    """Kernel-trap U-Net over the PIO-only SBA-100."""

    __slots__ = ("costs",)

    def __init__(
        self,
        host: Workstation,
        port: NetworkPort,
        costs: Optional[Sba100Costs] = None,
    ):
        self.costs = costs if costs is not None else Sba100Costs()
        super().__init__(host, port, input_fifo_cells=self.costs.input_fifo_cells)
        # The 36-cell output FIFO: the PIO loop blocks when it is full.
        self.port.tx_link.set_queue_capacity(self.costs.output_fifo_cells)
        self.sim.process(self._rx_kernel(), name=f"{self.name}.rx")

    def _per_cell_send_us(self) -> float:
        return self.costs.aal5_send_per_cell_us + self.costs.crc_us_per_byte * 48

    def _per_cell_recv_us(self) -> float:
        return self.costs.aal5_recv_per_cell_us + self.costs.crc_us_per_byte * 48

    def _on_attach(self, endpoint: Endpoint) -> None:
        self.sim.process(
            self._tx_kernel(endpoint), name=f"{self.name}.tx.{endpoint.name}"
        )

    def _tx_kernel(self, endpoint: Endpoint):
        """Kernel send path: one fast trap per packet, then a PIO loop
        pushing cells into the 36-deep output FIFO with software SAR+CRC."""
        costs = self.costs
        while True:
            desc = yield from endpoint.take_send()
            if desc is None:
                return
            channel = self._tx_channel(endpoint, desc)
            if channel is None:
                continue
            payload = endpoint.gather(desc)
            _o = obs.active
            _sp = (
                _o.begin(self.sim.now, "trap_tx", "ni_tx", host=self.host.name)
                if _o is not None
                else None
            )
            yield from self.host.cpu.compute(costs.send_trap_us)
            for cell in segment_pdu(payload, channel.tx_vci):
                yield from self.host.cpu.compute(self._per_cell_send_us())
                yield self.port.tx_link.put(cell)
            if _sp is not None:
                _o.annotate(_sp, bytes=len(payload))
                _o.end(_sp, self.sim.now)
            endpoint.complete_send(desc)
            self.pdus_sent += 1

    def _rx_kernel(self):
        """Kernel receive path: a fast trap pops cells off the input FIFO
        and the SAR library reassembles them (CRC in software)."""
        costs = self.costs
        while True:
            cell = yield self.input_fifo.get()
            _o = obs.active
            _sp = (
                _o.begin(self.sim.now, "trap_rx", "ni_rx", host=self.host.name)
                if _o is not None
                else None
            )
            try:
                yield from self.host.cpu.compute(self._per_cell_recv_us())
                payload = self.reassembler.push(cell)
                if payload is None:
                    if cell.last and _o is not None:
                        _o.count(self._k_rx_bad_pdu)
                    continue
                yield from self.host.cpu.compute(costs.recv_trap_us)
                channel = self.mux.demux(cell.vci)
                if channel is None:
                    if _o is not None:
                        _o.count(self._k_rx_unmatched)
                    continue
                if _sp is not None:
                    _o.annotate(_sp, bytes=len(payload))
                if len(payload) <= SINGLE_CELL_MAX and cells_for_pdu(len(payload)) == 1:
                    if self._deliver_inline(channel, payload):
                        self.pdus_received += 1
                else:
                    if self._deliver_buffered(channel, payload):
                        self.pdus_received += 1
            finally:
                if _sp is not None:
                    _o.end(_sp, self.sim.now)
