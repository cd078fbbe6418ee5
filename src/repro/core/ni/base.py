"""Common machinery shared by the NI models."""

from __future__ import annotations

from typing import List

from repro import obs
from repro.atm.aal5 import Reassembler
from repro.atm.cell import Cell
from repro.atm.network import NetworkPort
from repro.core.descriptors import RecvDescriptor
from repro.core.endpoint import DELIVERED, NO_BUFFER, Endpoint
from repro.core.mux import Mux
from repro.host import Workstation
from repro.sim import Simulator, Store


class NetworkInterface:
    """Base NI: owns the mux, the attached endpoints, and the port.

    Subclasses implement the transmit/receive firmware loops; the
    descriptor-protocol steps they run (send take, gather, completion,
    scatter) live once on :class:`~repro.core.endpoint.Endpoint`.  The
    U-Net architecture is deliberately independent of the NI hardware
    (§1); everything above this class (endpoints, channels, UAM,
    TCP/UDP) works unchanged across the three implementations.
    """

    __slots__ = (
        "host",
        "sim",
        "port",
        "name",
        "mux",
        "endpoints",
        "input_fifo",
        "input_fifo_drops",
        "reassembler",
        "send_errors",
        "pdus_sent",
        "pdus_received",
        "_k_tx_badchannel",
        "_k_rx_bad_pdu",
        "_k_rx_unmatched",
        "_k_rxfifo_drop",
        "_k_rxfifo_depth",
        "_k_rx_ring_full",
        "_k_rx_nobuf",
        "_k_rx_inline_pdus",
        "_k_rx_buffered_pdus",
        "_k_rx_buffered_bytes",
    )

    def __init__(
        self,
        host: Workstation,
        port: NetworkPort,
        input_fifo_cells: int = 292,
    ):
        self.host = host
        self.sim: Simulator = host.sim
        self.port = port
        self.name = f"{host.name}.ni"
        self.mux = Mux(name=f"{self.name}.mux")
        self.endpoints: List[Endpoint] = []
        # Cell input FIFO between the fiber and the (modelled) firmware.
        self.input_fifo = Store(self.sim, capacity=input_fifo_cells, name=f"{self.name}.rxfifo")
        self.input_fifo_drops = 0
        self.reassembler = Reassembler()
        self.send_errors = 0
        self.pdus_sent = 0
        self.pdus_received = 0
        # Counter/sample keys for the per-cell and per-PDU paths, built
        # once: _rx_sink and the firmware loops run on the event hot
        # path and must not re-format strings.
        self._k_tx_badchannel = f"{self.name}.tx_badchannel"
        self._k_rx_bad_pdu = f"{self.name}.rx_bad_pdu"
        self._k_rx_unmatched = f"{self.name}.rx_unmatched"
        self._k_rxfifo_drop = f"{self.name}.rxfifo_drop"
        self._k_rxfifo_depth = f"{self.name}.rxfifo_depth"
        self._k_rx_ring_full = f"{self.name}.rx_ring_full"
        self._k_rx_nobuf = f"{self.name}.rx_nobuf"
        self._k_rx_inline_pdus = f"{self.name}.rx_inline_pdus"
        self._k_rx_buffered_pdus = f"{self.name}.rx_buffered_pdus"
        self._k_rx_buffered_bytes = f"{self.name}.rx_buffered_bytes"
        port.set_rx_sink(self._rx_sink)
        host.ni = self

    # -- endpoint management (called by the kernel agent) ----------------
    def attach_endpoint(self, endpoint: Endpoint) -> None:
        self.endpoints.append(endpoint)
        self._on_attach(endpoint)

    def detach_endpoint(self, endpoint: Endpoint) -> None:
        self.endpoints.remove(endpoint)

    def _on_attach(self, endpoint: Endpoint) -> None:
        """Hook for subclasses (e.g. start a TX service process)."""

    # -- fiber side -------------------------------------------------------
    def _rx_sink(self, cell: Cell) -> None:
        accepted = self.input_fifo.try_put(cell)
        if not accepted:
            self.input_fifo_drops += 1
        _o = obs.active
        if _o is not None:
            _o.sample(
                self.sim._now,
                self._k_rxfifo_depth,
                len(self.input_fifo),
                host=self.host.name,
            )
            if not accepted:
                _o.count(self._k_rxfifo_drop)

    # -- descriptor helpers shared by all NI models ------------------------
    def _tx_channel(self, endpoint: Endpoint, desc):
        """The open channel a send descriptor names; None (a counted
        send error) when it is unknown or closed."""
        channel = endpoint.channels.get(desc.channel)
        if channel is None or not channel.open:
            self.send_errors += 1
            _o = obs.active
            if _o is not None:
                _o.count(self._k_tx_badchannel)
            return None
        return channel

    def _deliver_inline(self, channel, payload: bytes) -> bool:
        """Single-cell fast path: the message rides in the descriptor."""
        desc = RecvDescriptor(
            channel=channel.ident, length=len(payload), inline=payload
        )
        delivered = channel.endpoint.deliver(desc)
        _o = obs.active
        if _o is not None:
            _o.count(
                self._k_rx_inline_pdus if delivered else self._k_rx_ring_full
            )
        return delivered

    def _deliver_buffered(self, channel, payload: bytes) -> bool:
        """Scatter a message into free-queue buffers and deliver it."""
        outcome = channel.endpoint.deliver_scattered(channel.ident, payload)
        _o = obs.active
        if _o is not None:
            if outcome == DELIVERED:
                _o.count(self._k_rx_buffered_pdus)
                _o.count(self._k_rx_buffered_bytes, len(payload))
            elif outcome == NO_BUFFER:
                _o.count(self._k_rx_nobuf)
            else:
                _o.count(self._k_rx_ring_full)
        return outcome == DELIVERED

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} endpoints={len(self.endpoints)}>"
