"""Error-path buffer leaks in the IP send paths.

A failure after ``alloc`` but before the firmware takes ownership of
the descriptor must return the buffer: no completion will ever fire
for it, so nothing else can reclaim it.
"""

import pytest

from repro.bench.ip import build_kernel_atm_pair, build_unet_pair


class TestUnetIpSendErrorPath:
    def test_failed_write_frees_the_datagram_buffer(self):
        sim, cluster, stack_a, stack_b = build_unet_pair()
        segment = stack_a.session.endpoint.segment
        before = segment.live_allocations

        def boom(offset, data):
            raise RuntimeError("injected write failure")

        stack_a.session.write_segment = boom
        done = []

        def sender():
            with pytest.raises(RuntimeError, match="injected"):
                yield from stack_a.send_ip(2, 17, b"payload bytes")
            done.append(True)

        sim.process(sender())
        sim.run(until=sim.now + 1e6)
        assert done == [True]
        assert segment.live_allocations == before
        assert stack_a.packets_out == 0

    def test_successful_send_still_reclaims(self):
        sim, cluster, stack_a, stack_b = build_unet_pair()
        segment = stack_a.session.endpoint.segment
        before = segment.live_allocations

        def sender():
            yield from stack_a.send_ip(2, 17, b"payload bytes")

        sim.process(sender())
        sim.run(until=sim.now + 1e6)
        assert segment.live_allocations == before
        assert stack_a.packets_out == 1


class TestKernelDeviceTxErrorPath:
    def test_failed_dma_write_frees_the_device_buffer(self):
        sim, cluster, stack_a, stack_b = build_kernel_atm_pair()
        device = stack_a.device
        segment = device.session.endpoint.segment
        before = segment.live_allocations

        def boom(offset, data):
            raise RuntimeError("injected DMA setup failure")

        segment.write = boom
        assert device.transmit(b"x" * 100)
        with pytest.raises(RuntimeError, match="injected"):
            sim.run(until=sim.now + 1e6)
        del segment.write
        assert segment.live_allocations == before
        assert device.packets_sent == 0
