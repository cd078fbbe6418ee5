"""Figure 4: bandwidth as a function of message size.

Four curves: the theoretical AAL-5 limit (sawtooth from 48-byte cell
quantization), raw U-Net, and UAM store/get.  Paper anchors: the fiber
saturates with packets as small as ~800 bytes; UAM reaches 80% of the
limit at ~2 KB blocks and peaks near 14.8 MB/s, with a dip where a
block stops fitting one 4160-byte buffer.
"""

from repro.atm.aal5 import aal5_limit_bandwidth
from repro.bench import Series, parallel_map, raw_bandwidth
from repro.bench.report import print_figure
from repro.bench.uam import uam_get_bandwidth, uam_store_bandwidth

RAW_SIZES = [40, 96, 192, 384, 512, 800, 1024, 2048, 4096, 5120]
UAM_SIZES = [512, 1024, 2048, 4096, 4400, 5120]
GET_SIZES = [1024, 4096]


def _raw_point(size):
    return raw_bandwidth(size).bytes_per_second / 1e6


def _store_point(size):
    return uam_store_bandwidth(size).bytes_per_second / 1e6


def _get_point(size):
    return uam_get_bandwidth(size).bytes_per_second / 1e6


def sweep():
    limit = Series("AAL-5 limit")
    for size in sorted(set(RAW_SIZES + UAM_SIZES)):
        limit.add(size, aal5_limit_bandwidth(size, 140e6) / 1e6)
    raw = Series("Raw U-Net")
    for size, mbps in zip(RAW_SIZES, parallel_map(_raw_point, RAW_SIZES)):
        raw.add(size, mbps)
    store = Series("UAM store")
    for size, mbps in zip(UAM_SIZES, parallel_map(_store_point, UAM_SIZES)):
        store.add(size, mbps)
    get = Series("UAM get")
    for size, mbps in zip(GET_SIZES, parallel_map(_get_point, GET_SIZES)):
        get.add(size, mbps)
    return limit, raw, store, get


def test_fig4_bandwidth(once):
    limit, raw, store, get = once(sweep)
    print()
    print(print_figure(
        "Figure 4: U-Net bandwidth vs message size (MB/s)",
        [limit, raw, store, get], x_name="message bytes", y_name="MB/s",
    ))
    print("  paper anchors: saturation at ~800 B; UAM ~80% of limit @2 KB, "
          "peak ~14.8 MB/s, dip past one 4160-byte buffer")
    # raw saturates at 800 bytes
    assert raw.y_at(800) / limit.y_at(800) > 0.95
    assert raw.y_at(192) / limit.y_at(192) < 0.9
    # UAM store near the limit at 2 KB+ and a dip past the buffer size
    assert store.y_at(2048) > 0.8 * limit.y_at(2048)
    assert store.y_at(4400) < store.y_at(4096) + 0.1
    # get ~ store (paper: "nearly identical")
    assert abs(get.y_at(4096) - store.y_at(4096)) / store.y_at(4096) < 0.1
