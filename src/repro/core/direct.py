"""Direct-access U-Net (§3.6) -- implemented as a simulation extension.

The paper specifies direct-access U-Net (true zero copy: the sender
names an *offset in the destination communication segment* and the NI
deposits data there directly) but could not build it: 1995 hardware had
no NI-side MMU and too few I/O-bus address lines.  The simulation
substrate has neither limitation, so this module provides the
architecture as a strict superset of the base level, exactly as §3.6
describes it.

Framing: the direct-access firmware prefixes every PDU with a 5-byte
header (1 type byte + 4 offset bytes), so a direct-access NI
interoperates only with other direct-access NIs -- the same kind of
firmware-version coupling real U-Net had.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.atm.aal5 import cells_for_pdu, segment_pdu
from repro.core.descriptors import RecvDescriptor, SendDescriptor
from repro.core.endpoint import Endpoint
from repro.core.ni.sba200 import Sba200UNet

HEADER = struct.Struct(">BI")
TYPE_BASE = 0
TYPE_DIRECT = 1


@dataclass
class DirectSendDescriptor(SendDescriptor):
    """A send descriptor naming a destination-segment offset (§3.6)."""

    remote_offset: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.remote_offset < 0:
            raise ValueError("remote offset cannot be negative")


class DirectAccessNI(Sba200UNet):
    """SBA-200 U-Net firmware extended with direct-access deposits.

    Base-level descriptors work unchanged; :class:`DirectSendDescriptor`
    triggers the direct path: no free-queue pop, no receive buffer --
    the payload lands at the sender-specified offset of the destination
    segment and a zero-copy notification descriptor is queued.
    """

    #: i960 receive cost for a direct deposit: cheaper than the buffered
    #: path (no free-queue DMA, no descriptor DMA of buffer lists).
    i960_rx_direct_us = 12.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.direct_deposits = 0
        self.direct_range_errors = 0
        self._k_direct_range_error = f"{self.name}.direct_range_error"

    # -- transmit: add framing ------------------------------------------------
    def _gather(self, endpoint: Endpoint, desc: SendDescriptor) -> bytes:
        body = super()._gather(endpoint, desc)
        if isinstance(desc, DirectSendDescriptor):
            return HEADER.pack(TYPE_DIRECT, desc.remote_offset) + body
        return HEADER.pack(TYPE_BASE, 0) + body

    # -- receive: strip framing, dispatch -----------------------------------
    def _rx_firmware(self):
        costs = self.costs
        while True:
            cell = yield self.input_fifo.get()
            yield from self.i960.use(costs.i960_rx_per_cell_us)
            first_of_pdu = self.reassembler.pending_cells(cell.vci) == 0
            framed = self.reassembler.push(cell)
            if framed is None:
                if cell.last:
                    _o = obs.active
                    if _o is not None:
                        _o.count(self._k_rx_bad_pdu)
                continue
            channel = self.mux.demux(cell.vci)
            if channel is None:
                _o = obs.active
                if _o is not None:
                    _o.count(self._k_rx_unmatched)
                continue
            msg_type, offset = HEADER.unpack(framed[: HEADER.size])
            payload = framed[HEADER.size :]
            if msg_type == TYPE_DIRECT:
                yield from self.i960.use(self.i960_rx_direct_us)
                self._deposit_direct(channel, offset, payload)
            elif (
                self.single_cell_optimization
                and first_of_pdu
                and cell.last
                and len(payload) <= 40 - HEADER.size
            ):
                yield from self.i960.use(costs.i960_rx_single_us)
                if self._deliver_inline(channel, payload):
                    self.pdus_received += 1
            else:
                yield from self.i960.use(costs.i960_rx_packet_us)
                if self._deliver_buffered(channel, payload):
                    self.pdus_received += 1

    def _deposit_direct(self, channel, offset: int, payload: bytes) -> None:
        endpoint = channel.endpoint
        try:
            endpoint.segment.check_range(offset, len(payload))
        except Exception:
            # Out-of-segment deposit: protection says drop, never write.
            self.direct_range_errors += 1
            _o = obs.active
            if _o is not None:
                _o.count(self._k_direct_range_error)
            return
        endpoint.segment.write(offset, payload)
        self.direct_deposits += 1
        notification = RecvDescriptor(
            channel=channel.ident,
            length=len(payload),
            bufs=((offset, len(payload)),),
        )
        if endpoint.deliver(notification):
            self.pdus_received += 1
        else:
            _o = obs.active
            if _o is not None:
                _o.count(self._k_rx_ring_full)
