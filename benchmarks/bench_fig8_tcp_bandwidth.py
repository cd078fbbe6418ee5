"""Figure 8: TCP bandwidth as a function of data generation by the
application, for several window sizes.

Paper: "in most cases U-Net TCP achieves a 14-15 Mbytes/sec bandwidth
using an 8 Kbyte window, while even with a 64K window the kernel
TCP/ATM combination will not achieve more than 9-10 Mbytes/sec".
"""

from repro.bench import Series, parallel_map
from repro.bench.ip import tcp_bandwidth
from repro.bench.report import print_figure

WRITE_SIZES = [1024, 2048, 4096, 8192]

CURVES = (
    ("unet", 8192, "U-Net TCP, 8K window"),
    ("unet", 32768, "U-Net TCP, 32K window"),
    ("kernel-atm", 8192, "kernel TCP, 8K window"),
    ("kernel-atm", 64 * 1024 - 1, "kernel TCP, 64K window"),
)


def _point(params):
    ws, kind, window = params
    return tcp_bandwidth(ws, kind=kind, window=window).bytes_per_second / 1e6


def sweep():
    # One flat point list across all four curves: a single pool fan-out.
    points = [
        (ws, kind, window)
        for kind, window, _ in CURVES
        for ws in WRITE_SIZES
    ]
    values = parallel_map(_point, points)
    curves = []
    for i, (kind, window, label) in enumerate(CURVES):
        series = Series(label)
        for j, ws in enumerate(WRITE_SIZES):
            series.add(ws, values[i * len(WRITE_SIZES) + j])
        curves.append(series)
    return curves


def test_fig8_tcp_bandwidth(once):
    curves = once(sweep)
    print()
    print(print_figure(
        "Figure 8: TCP bandwidth vs application write size (MB/s)",
        curves, x_name="application write bytes", y_name="MB/s",
    ))
    print("  paper anchors: U-Net TCP 14-15 MB/s @ 8K window; kernel "
          "TCP <= 9-10 MB/s even @ 64K")
    unet8 = next(c for c in curves if "U-Net TCP, 8K" in c.label)
    kern64 = next(c for c in curves if "kernel TCP, 64K" in c.label)
    kern8 = next(c for c in curves if "kernel TCP, 8K" in c.label)
    assert unet8.y_at(4096) > 14.0
    assert kern64.y_at(4096) < 12.0
    assert kern8.y_at(4096) < kern64.y_at(4096)
    # U-Net with the small window still beats the kernel with the big one
    assert unet8.y_at(4096) > kern64.y_at(4096)
