"""Sample statistics for simulation measurements."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class StatSeries:
    """Accumulates samples and reports summary statistics."""

    name: str = ""
    samples: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.samples.append(value)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError(f"no samples in series {self.name!r}")
        return sum(self.samples) / len(self.samples)

    @property
    def minimum(self) -> float:
        if not self.samples:
            raise ValueError(f"no samples in series {self.name!r}")
        return min(self.samples)

    @property
    def maximum(self) -> float:
        if not self.samples:
            raise ValueError(f"no samples in series {self.name!r}")
        return max(self.samples)

    @property
    def stddev(self) -> float:
        if not self.samples:
            raise ValueError(f"no samples in series {self.name!r}")
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (len(self.samples) - 1))

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, p in [0, 100]."""
        if not self.samples:
            raise ValueError(f"no samples in series {self.name!r}")
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def summary(self) -> Tuple[float, float, float]:
        """(min, mean, max)."""
        return (self.minimum, self.mean, self.maximum)
