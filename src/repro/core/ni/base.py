"""Common machinery shared by the NI models."""

from __future__ import annotations

from typing import List, Optional

from repro import obs
from repro.atm.cell import Cell
from repro.atm.network import NetworkPort
from repro.core.endpoint import Endpoint
from repro.core.mux import Mux
from repro.host import Workstation
from repro.sim import Event, Simulator, Store, Tracer


class NetworkInterface:
    """Base NI: owns the mux, the attached endpoints, and the port.

    Subclasses implement the transmit/receive firmware loops.  The U-Net
    architecture is deliberately independent of the NI hardware (§1);
    everything above this class (endpoints, channels, UAM, TCP/UDP)
    works unchanged across the three implementations.
    """

    __slots__ = (
        "host",
        "sim",
        "port",
        "name",
        "mux",
        "tracer",
        "endpoints",
        "_attach_event",
        "input_fifo",
        "input_fifo_drops",
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
        tracer: Optional[Tracer] = None,
    ):
        self.host = host
        self.sim: Simulator = host.sim
        self.port = port
        self.name = f"{host.name}.ni"
        self.mux = Mux(name=f"{self.name}.mux")
        self.tracer = tracer or host.tracer
        self.endpoints: List[Endpoint] = []
        self._attach_event: Event = self.sim.event()
        # Cell input FIFO between the fiber and the (modelled) firmware.
        self.input_fifo = Store(self.sim, capacity=input_fifo_cells, name=f"{self.name}.rxfifo")
        self.input_fifo_drops = 0
        # Counter/sample keys for the per-cell and per-PDU paths, built
        # once: _rx_sink and the delivery helpers run on the event hot
        # path and must not re-format strings.
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
        if not self._attach_event.triggered:
            self._attach_event.succeed()
        self._attach_event = self.sim.event()
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
            self.tracer.count(self._k_rxfifo_drop)
        _o = obs.active
        if _o is not None:
            _o.sample(
                self.sim._now,
                self._k_rxfifo_depth,
                len(self.input_fifo),
                host=self.host.name,
            )
            if not accepted:
                _o.bump(self._k_rxfifo_drop)

    # -- delivery helpers shared by all NI models --------------------------
    def _deliver_inline(self, channel, payload: bytes) -> bool:
        """Single-cell fast path: the message rides in the descriptor."""
        from repro.core.descriptors import RecvDescriptor

        desc = RecvDescriptor(
            channel=channel.ident, length=len(payload), inline=payload
        )
        if channel.endpoint.deliver(desc):
            _o = obs.active
            if _o is not None:
                _o.bump(self._k_rx_inline_pdus)
            return True
        self.tracer.count(self._k_rx_ring_full)
        return False

    def _deliver_buffered(self, channel, payload: bytes) -> bool:
        """Scatter a message into free-queue buffers and deliver it."""
        from repro.core.descriptors import RecvDescriptor

        endpoint = channel.endpoint
        remaining = len(payload)
        cursor = 0
        used = []
        popped = []
        while remaining > 0:
            free = endpoint.free_queue.pop()
            if free is None:
                # Out of receive buffers: the whole message is dropped and
                # any buffers already popped go back to the free queue.
                endpoint.no_buffer_drops += 1
                self.tracer.count(self._k_rx_nobuf)
                for fd in popped:
                    endpoint.free_queue.push(fd)
                return False
            popped.append(free)
            take = min(free.length, remaining)
            endpoint.segment.write(free.offset, payload[cursor : cursor + take])
            # The scatter list itself is the product of this helper.
            used.append((free.offset, take))  # simcost: disable=cost-alloc
            cursor += take
            remaining -= take
        desc = RecvDescriptor(
            channel=channel.ident, length=len(payload), bufs=tuple(used)
        )
        if endpoint.deliver(desc):
            _o = obs.active
            if _o is not None:
                _o.bump(self._k_rx_buffered_pdus)
                _o.bump(self._k_rx_buffered_bytes, len(payload))
            return True
        for fd in popped:
            endpoint.free_queue.push(fd)
        self.tracer.count(self._k_rx_ring_full)
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} endpoints={len(self.endpoints)}>"
