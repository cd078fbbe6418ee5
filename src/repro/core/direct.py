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
    def _rx_dispatch(self, channel, pdu: bytes, single: bool) -> tuple:
        msg_type, offset = HEADER.unpack_from(pdu)
        payload = pdu[HEADER.size :]
        if msg_type == TYPE_DIRECT:
            return (
                self.i960_rx_direct_us,
                self._deposit_direct,
                (channel, offset, payload),
            )
        return super()._rx_dispatch(channel, payload, single)

    def _deposit_direct(self, channel, offset: int, payload: bytes) -> bool:
        endpoint = channel.endpoint
        try:
            endpoint.segment.check_range(offset, len(payload))
        except Exception:
            # Out-of-segment deposit: protection says drop, never write.
            self.direct_range_errors += 1
            _o = obs.active
            if _o is not None:
                _o.count(self._k_direct_range_error)
            return False
        endpoint.segment.write(offset, payload)
        self.direct_deposits += 1
        notification = RecvDescriptor(
            channel=channel.ident,
            length=len(payload),
            bufs=((offset, len(payload)),),
        )
        if endpoint.deliver(notification):
            return True
        _o = obs.active
        if _o is not None:
            _o.count(self._k_rx_ring_full)
        return False
