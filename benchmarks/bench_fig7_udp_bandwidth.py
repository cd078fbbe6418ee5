"""Figure 7: UDP bandwidth as a function of message size.

Three curves: kernel UDP as perceived at the sender, kernel UDP as
actually received (the gap is silent loss at the device output queue
and socket buffers), and U-Net UDP (lossless: only the receive rate is
shown, as in the paper).  The kernel's saw-tooth comes from the mbuf
allocation scheme (1 KB clusters + 112-byte small mbufs).
"""

from repro.bench import Series, parallel_map
from repro.bench.ip import udp_bandwidth
from repro.bench.report import print_figure

# Below ~1 KB a free-running sender can outpace the receive-side i960
# (whose per-packet cost is what fixes Figure 4's 800-byte saturation
# point), so the paper's no-loss claim is reproduced over the 1-8 KB
# range; see EXPERIMENTS.md.
SIZES = [1000, 1500, 1536, 2048, 3000, 4096, 6000, 8000]


def _kernel_point(size):
    return udp_bandwidth(size, kind="kernel-atm")


def _unet_point(size):
    return udp_bandwidth(size, kind="unet")


def sweep():
    k_send = Series("kernel UDP (sender perceived)")
    k_recv = Series("kernel UDP (actually received)")
    losses = {}
    for size, r in zip(SIZES, parallel_map(_kernel_point, SIZES)):
        k_send.add(size, r.send_rate / 1e6)
        k_recv.add(size, r.recv_rate / 1e6)
        losses[size] = (r.drops, r.sent)
    unet = Series("U-Net UDP (received; no losses)")
    for size, r in zip(SIZES, parallel_map(_unet_point, SIZES)):
        assert r.drops == 0, "U-Net UDP must be lossless (§7.6)"
        unet.add(size, r.recv_rate / 1e6)
    return k_send, k_recv, unet, losses


def test_fig7_udp_bandwidth(once):
    k_send, k_recv, unet, losses = once(sweep)
    print()
    print(print_figure(
        "Figure 7: UDP bandwidth vs message size (MB/s)",
        [k_send, k_recv, unet], x_name="message bytes", y_name="MB/s",
    ))
    lost = {s: d for s, (d, n) in losses.items() if d}
    print(f"  kernel losses by size: {lost or 'none in this run'}")
    print("  paper shape: U-Net UDP lossless near fiber rate; kernel far "
          "below with a sender/receiver gap and an mbuf saw-tooth")
    # U-Net UDP near the fiber limit from ~1 KB
    assert unet.y_at(1000) > 14.0
    # kernel far below U-Net everywhere
    for size in SIZES:
        assert k_recv.y_at(size) < unet.y_at(size)
    # sender-perceived rate >= delivered rate, strictly higher somewhere
    assert all(k_send.y_at(s) >= k_recv.y_at(s) - 0.01 for s in SIZES)
    assert any(k_send.y_at(s) > k_recv.y_at(s) * 1.1 for s in SIZES)
    # the mbuf saw-tooth: a 512-byte remainder beats a 476-byte one
    assert k_send.y_at(1536) > k_send.y_at(1500) * 1.05
