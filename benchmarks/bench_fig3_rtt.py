"""Figure 3: round-trip times as a function of message size.

Three curves: Raw U-Net ping-pong, UAM single-cell requests/replies,
and UAM reliable block transfers.  Paper anchors: 65 us single cell;
longer messages from ~120 us at 48 bytes plus ~6 us/cell; UAM at 71 us;
UAM transfers at roughly 135 us + N * 0.2 us.
"""

from repro.bench import Series, parallel_map, raw_rtt
from repro.bench.report import print_figure
from repro.bench.uam import uam_single_cell_rtt, uam_xfer_rtt

RAW_SIZES = [0, 8, 16, 32, 40, 48, 96, 192, 384, 768, 1024]
UAM_SIZES = [0, 8, 16, 32]
XFER_SIZES = [48, 128, 256, 512, 1024]


def _raw_point(size):
    return raw_rtt(size, n=4).mean_us


def _uam_point(size):
    return uam_single_cell_rtt(size, n=4).mean_us


def _xfer_point(size):
    return uam_xfer_rtt(size, n=4).mean_us


def sweep():
    raw = Series("Raw U-Net")
    for size, us in zip(RAW_SIZES, parallel_map(_raw_point, RAW_SIZES)):
        raw.add(size, us)
    uam = Series("UAM (single-cell request/reply)")
    for size, us in zip(UAM_SIZES, parallel_map(_uam_point, UAM_SIZES)):
        uam.add(size, us)
    xfer = Series("UAM xfer (reliable block transfer)")
    for size, us in zip(XFER_SIZES, parallel_map(_xfer_point, XFER_SIZES)):
        xfer.add(size, us)
    return raw, uam, xfer


def test_fig3_round_trip_times(once):
    raw, uam, xfer = once(sweep)
    print()
    print(print_figure(
        "Figure 3: U-Net round-trip times vs message size",
        [raw, uam, xfer], x_name="message bytes", y_name="round trip (us)",
    ))
    print("  paper anchors: raw 65 us single cell; 120 us @ 48 B; "
          "+~6 us/cell; UAM 71 us; xfer ~135 + 0.2N us")
    # single-cell plateau and the jump past 40 bytes
    assert abs(raw.y_at(32) - 65.0) < 5.0
    assert raw.y_at(48) - raw.y_at(40) > 40.0
    # UAM adds ~6 us over raw
    assert 2.0 < uam.y_at(32) - raw.y_at(32) < 12.0
    # xfer slope ~0.2 us/byte
    slope = (xfer.y_at(1024) - xfer.y_at(128)) / (1024 - 128)
    assert 0.15 < slope < 0.30
