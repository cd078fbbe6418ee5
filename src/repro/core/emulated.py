"""Kernel-emulated U-Net endpoints (§3.5).

Communication segments and message queues on the NI are scarce, so the
kernel can multiplex many *emulated* endpoints onto a single real one.
To the application an emulated endpoint looks exactly like a regular
endpoint -- same :class:`~repro.core.endpoint.Endpoint` object, same
session API -- "except that the performance characteristics are quite
different": every send and receive crosses the kernel (a system call
plus a copy between the pageable user segment and the kernel's pinned
real segment).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.descriptors import (
    SINGLE_CELL_MAX,
    FreeDescriptor,
    RecvDescriptor,
    SendDescriptor,
)
from repro.core.endpoint import Channel, Endpoint

KERNEL_OWNER = "<kernel>"


class EmulatedUNet:
    """Per-host kernel service multiplexing emulated endpoints onto one
    real endpoint."""

    #: Fixed-size kernel buffers in the real endpoint's segment.
    KERNEL_BUFFER = 4160

    def __init__(self, agent, segment_size: int = 256 * 1024, kernel_buffers: int = 24):
        self.agent = agent
        self.host = agent.host
        self.sim = agent.host.sim
        self.real: Endpoint = agent.create_endpoint(
            owner=KERNEL_OWNER,
            name=f"{self.host.name}.kernel-ep",
            segment_size=segment_size,
            send_ring=128,
            recv_ring=128,
            free_ring=64,
        )
        self.emulated: list = []
        self._emu_to_real: Dict[int, Channel] = {}
        self._real_to_emu: Dict[int, Tuple[Endpoint, Channel]] = {}
        self.forwarded_in = 0
        self.forwarded_out = 0
        self.unmatched = 0
        # Stock the real endpoint's free queue with kernel buffers.
        for _ in range(kernel_buffers):
            offset = self.real.segment.alloc(self.KERNEL_BUFFER)
            self.real.post_free(
                FreeDescriptor(offset, self.KERNEL_BUFFER), KERNEL_OWNER
            )
        self.sim.process(self._recv_service(), name=f"{self.host.name}.kemu.rx")

    # -- endpoint lifecycle -------------------------------------------------
    def create_endpoint(self, owner: str, name: str = "", **ring_kwargs) -> Endpoint:
        endpoint = Endpoint(
            self.sim,
            name=name or f"{self.host.name}.emu{len(self.emulated)}",
            owner=owner,
            emulated=True,
            **ring_kwargs,
        )
        self.emulated.append(endpoint)
        self.sim.process(
            self._send_service(endpoint), name=f"{self.host.name}.kemu.tx"
        )
        return endpoint

    def install_channel(
        self, endpoint: Endpoint, tx_vci: int, rx_vci: int, peer_host: str
    ) -> Channel:
        """Install the real channel on the kernel endpoint and hand the
        application a virtual channel on its emulated endpoint."""
        real_ch = Channel(
            ident=self.agent.allocate_channel_id(),
            endpoint=self.real,
            tx_vci=tx_vci,
            rx_vci=rx_vci,
            peer_host=peer_host,
        )
        self.agent.ni.mux.register(real_ch)
        self.real.channels[real_ch.ident] = real_ch
        emu_ch = Channel(
            ident=self.agent.allocate_channel_id(),
            endpoint=endpoint,
            tx_vci=tx_vci,
            rx_vci=rx_vci,
            peer_host=peer_host,
        )
        endpoint.channels[emu_ch.ident] = emu_ch
        self._emu_to_real[emu_ch.ident] = real_ch
        self._real_to_emu[real_ch.ident] = (endpoint, emu_ch)
        return emu_ch

    def close_channel(self, emu_channel: Channel) -> None:
        real_ch = self._emu_to_real.pop(emu_channel.ident)
        del self._real_to_emu[real_ch.ident]
        emu_channel.open = False
        real_ch.open = False
        self.agent.ni.mux.unregister(real_ch)

    # -- kernel send path ------------------------------------------------------
    def _send_service(self, emu: Endpoint):
        host = self.host
        while True:
            desc = yield from emu.take_send()
            if desc is None:
                return
            real_ch = self._emu_to_real.get(desc.channel)
            if real_ch is None or not real_ch.open:
                self.unmatched += 1
                continue
            # System call into the kernel, then copy user -> kernel.
            yield from host.syscall()
            payload = emu.gather(desc)
            if len(payload) <= SINGLE_CELL_MAX:
                fwd = SendDescriptor(channel=real_ch.ident, inline=payload)
                yield from self._post_real(fwd)
            else:
                offset = self.real.segment.alloc(len(payload))
                try:
                    yield from host.copy(len(payload))
                    self.real.segment.write(offset, payload)
                    fwd = SendDescriptor(
                        channel=real_ch.ident, bufs=((offset, len(payload)),)
                    )
                    yield from self._post_real(fwd)
                    yield self.real.wait_send_complete(fwd)
                except Exception:
                    # forwarding failed mid-flight: return the kernel
                    # bounce buffer instead of leaking it
                    self.real.segment.free(offset, len(payload))
                    raise
                self.real.segment.free(offset, len(payload))
            emu.complete_send(desc)
            self.forwarded_out += 1

    def _post_real(self, descriptor: SendDescriptor):
        while not self.real.post_send(descriptor, KERNEL_OWNER):
            yield self.real.send_queue.wait_space()

    # -- kernel receive path -----------------------------------------------------
    def _recv_service(self):
        host = self.host
        while True:
            yield self.real.recv_queue.wait_nonempty()
            desc = self.real.recv_poll(KERNEL_OWNER)
            if desc is None:
                continue
            target = self._real_to_emu.get(desc.channel)
            if target is None:
                self.unmatched += 1
                self._recycle(desc)
                continue
            emu, emu_ch = target
            # Kernel -> user crossing and copy into the user's segment.
            yield from host.syscall()
            payload = self.real.gather(desc)
            inline = len(payload) <= SINGLE_CELL_MAX
            if not inline:
                yield from host.copy(len(payload))
            if emu.destroyed:
                # Destroyed during the crossing: nobody left to deliver to.
                self.unmatched += 1
                self._recycle(desc)
                continue
            if inline:
                emu.deliver(
                    RecvDescriptor(
                        channel=emu_ch.ident, length=len(payload), inline=payload
                    )
                )
            else:
                emu.deliver_scattered(emu_ch.ident, payload)
            self._recycle(desc)
            self.forwarded_in += 1

    def _recycle(self, desc: RecvDescriptor) -> None:
        if not desc.is_inline:
            for offset, _used in desc.bufs:
                # Re-posting a free descriptor per buffer is the modelled
                # kernel behaviour (descriptors are owned by the queue).
                self.real.post_free(
                    FreeDescriptor(offset, self.KERNEL_BUFFER), KERNEL_OWNER
                )
