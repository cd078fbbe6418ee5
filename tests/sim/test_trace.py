"""Unit tests for sample statistics."""

import pytest

from repro.sim import StatSeries


class TestStatSeries:
    def test_mean_min_max(self):
        s = StatSeries()
        for v in (1.0, 2.0, 3.0):
            s.add(v)
        assert s.mean == 2.0
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.summary() == (1.0, 2.0, 3.0)

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            _ = StatSeries(name="empty").mean

    def test_stddev(self):
        s = StatSeries()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            s.add(v)
        assert s.stddev == pytest.approx(2.138, abs=0.01)

    def test_stddev_single_sample_is_zero(self):
        s = StatSeries()
        s.add(5.0)
        assert s.stddev == 0.0

    def test_percentile(self):
        s = StatSeries()
        for v in range(1, 101):
            s.add(float(v))
        assert s.percentile(0) == 1.0
        assert s.percentile(100) == 100.0
        assert s.percentile(50) == pytest.approx(50.5)

    def test_percentile_bounds(self):
        s = StatSeries()
        s.add(1.0)
        with pytest.raises(ValueError):
            s.percentile(101)

    def test_len(self):
        s = StatSeries()
        assert len(s) == 0
        s.add(1.0)
        assert len(s) == 1


class TestStatSeriesEmpty:
    def test_empty_minimum_raises(self):
        with pytest.raises(ValueError, match="no samples in series 'rtt'"):
            StatSeries(name="rtt").minimum

    def test_empty_maximum_raises(self):
        with pytest.raises(ValueError, match="no samples in series 'rtt'"):
            StatSeries(name="rtt").maximum

    def test_empty_stddev_raises(self):
        with pytest.raises(ValueError, match="no samples in series 'rtt'"):
            StatSeries(name="rtt").stddev
