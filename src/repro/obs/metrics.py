"""repro.obs.metrics -- log-bucketed histograms.

:class:`Histogram` is the distribution store behind
:meth:`repro.obs.spans.SpanCollector.observe`.  Buckets are logarithmic
with ``SUBBUCKETS`` linear sub-buckets per power of two (``frexp``
decomposition), so any recorded value is reproduced by
:meth:`Histogram.percentile` within a relative error of
``1 / (2 * SUBBUCKETS)`` -- and min/max/count/sum are tracked exactly
on the side, so p0/p100 and means are exact.
"""

from __future__ import annotations

import math
from typing import Dict

__all__ = ["Histogram", "SUBBUCKETS"]

#: Linear sub-buckets per power of two.  64 bounds the relative error of
#: a percentile readout at 1/128 (< 0.8%), HDR-histogram territory,
#: while a typical run touches only a few dozen (sparse) buckets.
SUBBUCKETS = 64


class Histogram:
    """Sparse log-bucketed histogram with exact summary statistics.

    Values must be finite and are clamped at 0 (negative occupancy or
    latency is a caller bug, but must not corrupt the bucket index).
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    @staticmethod
    def _index(value: float) -> int:
        # frexp: value = m * 2**e with m in [0.5, 1); the sub-bucket is
        # the linear position of m within its octave.
        if value <= 0.0:
            return 0
        m, e = math.frexp(value)
        return 1 + (e + 1024) * SUBBUCKETS + int((m - 0.5) * 2.0 * SUBBUCKETS)

    @staticmethod
    def _value(index: int) -> float:
        """Representative (midpoint) value of a bucket."""
        if index == 0:
            return 0.0
        index -= 1
        e = index // SUBBUCKETS - 1024
        sub = index % SUBBUCKETS
        m = 0.5 + (sub + 0.5) / (2.0 * SUBBUCKETS)
        return math.ldexp(m, e)

    def observe(self, value: float) -> None:
        idx = self._index(value)
        buckets = self.buckets
        buckets[idx] = buckets.get(idx, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        if not self.count:
            raise ValueError("no samples in histogram")
        return self.total / self.count

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (in [0, 100]), accurate to the
        bucket resolution; p=0 / p=100 return the exact min / max."""
        if not self.count:
            raise ValueError("no samples in histogram")
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if p == 0.0:
            return self.min
        if p == 100.0:
            return self.max
        rank = p / 100.0 * self.count
        seen = 0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                # Clamp to the exact extremes: the top/bottom bucket
                # midpoints can overshoot what was actually recorded.
                return min(max(self._value(idx), self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
        }
