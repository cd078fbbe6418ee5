"""Classic 10 Mbit/s Ethernet -- the Figure 6 latency baseline.

Frame-level model: one shared medium serializing frames at 10 Mbit/s
with the standard 14-byte header, 4-byte FCS, 8-byte preamble, and the
9.6 us inter-frame gap.  Two (or more) hosts attach; frames carry IP
datagrams between them.  No collisions are modelled (the benchmarks run
two quiet hosts, where CSMA/CD rarely backs off).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim import Simulator, Store

ETHERNET_BPS = 10_000_000.0
ETHERNET_MTU = 1500
FRAME_OVERHEAD = 14 + 4 + 8  # header + FCS + preamble
INTERFRAME_GAP_US = 9.6


class EthernetFrame:
    __slots__ = ("src", "dst", "payload")

    def __init__(self, src: int, dst: int, payload: bytes):
        if len(payload) > ETHERNET_MTU:
            raise ValueError(f"frame payload {len(payload)} exceeds Ethernet MTU")
        self.src = src
        self.dst = dst
        self.payload = payload

    @property
    def wire_bytes(self) -> int:
        # minimum frame size of 64 bytes (without preamble)
        return max(64, len(self.payload) + 18) + 8


class EthernetPort:
    def __init__(self, lan: "EthernetLan", address: int):
        self.lan = lan
        self.address = address
        self._sink: Optional[Callable[[EthernetFrame], None]] = None

    def set_rx_sink(self, sink: Callable[[EthernetFrame], None]) -> None:
        self._sink = sink

    def send_frame(self, dst: int, payload: bytes) -> None:
        self.lan._transmit(EthernetFrame(self.address, dst, payload))

    def _deliver(self, frame: EthernetFrame) -> None:
        if self._sink is not None:
            self._sink(frame)


class EthernetLan:
    """A shared 10 Mbit/s segment."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._ports: Dict[int, EthernetPort] = {}
        self._medium = Store(sim, name="ether.medium")
        self.frames_sent = 0
        self.bytes_sent = 0
        sim.process(self._pump(), name="ether.pump")

    def attach(self, address: int) -> EthernetPort:
        if address in self._ports:
            raise ValueError(f"ethernet address {address} already in use")
        port = EthernetPort(self, address)
        self._ports[address] = port
        return port

    def _transmit(self, frame: EthernetFrame) -> None:
        self._medium.try_put(frame)

    def _pump(self):
        while True:
            frame = yield self._medium.get()
            # the shared medium serializes every frame
            yield self.sim.timeout(frame.wire_bytes * 8 / ETHERNET_BPS * 1e6)
            self.frames_sent += 1
            self.bytes_sent += frame.wire_bytes
            target = self._ports.get(frame.dst)
            if target is not None:
                target._deliver(frame)
            yield self.sim.timeout(INTERFRAME_GAP_US)
