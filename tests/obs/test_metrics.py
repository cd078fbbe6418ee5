"""Histograms and the span collector's counters, gauges and histograms."""

import pytest

from repro.obs.metrics import Histogram
from repro.obs.spans import SpanCollector


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


# -- collector metrics ----------------------------------------------------

def test_registry_counters_gauges_histograms():
    col = SpanCollector()
    col.count("drops")
    col.count("drops", 2)
    col.count("busy_us", 1.5)
    col.gauge_max("depth", 3)
    col.gauge_max("depth", 1)
    col.observe("lat", 2.0)
    snap = col.snapshot()
    assert set(snap) == {"counters", "gauges", "histograms"}
    assert snap["counters"]["drops"] == 3
    assert snap["counters"]["busy_us"] == 1.5
    assert snap["gauges"]["depth"] == 3
    assert snap["histograms"]["lat"]["count"] == 1


def test_registry_histogram_lookup_unknown_key_raises():
    col = SpanCollector()
    col.observe("known", 1.0)
    col.histogram("known")
    with pytest.raises(KeyError, match="known"):
        col.histogram("missing")
