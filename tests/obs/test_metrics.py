"""The metrics substrate: histograms, registry, off-guard, merge."""

import pytest

from repro.obs import metrics
from repro.obs.metrics import Histogram, MetricsRegistry


# -- histogram ------------------------------------------------------------

def test_histogram_exact_count_sum_min_max():
    h = Histogram()
    for v in (1.0, 2.0, 3.0, 4.0, 100.0):
        h.observe(v)
    assert h.count == 5
    assert h.total == 110.0
    assert h.min == 1.0
    assert h.max == 100.0
    assert h.mean == 22.0


def test_histogram_percentile_relative_error_is_bounded():
    h = Histogram()
    values = [0.001 * (i + 1) * 7.3 for i in range(10_000)]
    for v in values:
        h.observe(v)
    values.sort()
    for q in (50.0, 99.0, 99.9):
        exact = values[min(len(values) - 1, int(len(values) * q / 100.0))]
        approx = h.percentile(q)
        assert abs(approx - exact) / exact < 0.01, q


def test_histogram_percentile_clamps_to_observed_range():
    h = Histogram()
    h.observe(5.0)
    assert h.percentile(0.0) == 5.0
    assert h.percentile(100.0) == 5.0


def test_histogram_empty_percentile_raises():
    with pytest.raises(ValueError):
        Histogram().percentile(50.0)


def test_histogram_nonpositive_values_bucket_zero():
    h = Histogram()
    h.observe(0.0)
    h.observe(-3.0)
    assert h.count == 2
    assert h.min == -3.0
    assert h.percentile(50.0) <= 0.0


def test_histogram_summary_keys():
    h = Histogram()
    h.observe(2.0)
    s = h.summary()
    assert set(s) == {"count", "sum", "min", "max", "mean", "p50", "p99", "p999"}


# -- registry -------------------------------------------------------------

def test_registry_counters_gauges_histograms():
    reg = MetricsRegistry()
    reg.count("drops")
    reg.count("drops", 2)
    reg.count("busy_us", 1.5)
    reg.gauge_max("depth", 3)
    reg.gauge_max("depth", 1)
    reg.observe("lat", 2.0)
    snap = reg.snapshot()
    assert snap["counters"]["drops"] == 3
    assert snap["counters"]["busy_us"] == 1.5
    assert snap["gauges"]["depth"] == 3
    assert snap["histograms"]["lat"]["count"] == 1


def test_registry_histogram_lookup_unknown_key_raises():
    reg = MetricsRegistry()
    reg.observe("known", 1.0)
    reg.histogram("known")
    with pytest.raises(KeyError, match="known"):
        reg.histogram("missing")


# -- module arming --------------------------------------------------------

def test_metrics_off_by_default():
    assert metrics.active is None
    assert not metrics.enabled()


def test_collecting_scopes_the_registry():
    assert metrics.active is None
    with metrics.collecting() as reg:
        assert metrics.active is reg
        reg.count("x")
    assert metrics.active is None
    assert reg.counters["x"] == 1


def test_enable_disable_roundtrip():
    assert metrics.active is None
    reg = metrics.enable()
    try:
        assert metrics.active is reg
        assert metrics.enable() is reg  # idempotent
    finally:
        metrics.disable()
    assert metrics.active is None


def test_obs_collecting_arms_metrics():
    from repro import obs

    with obs.collecting() as col:
        assert metrics.active is not None
        assert col.metrics is metrics.active
        metrics.active.count("seen")
    assert metrics.active is None
    assert col.metrics.counters["seen"] == 1
