"""Benchmark harness shared by the ``benchmarks/`` directory.

* :mod:`repro.bench.micro` -- raw U-Net micro-benchmarks (ping-pong
  latency, windowed streaming bandwidth) against any NI model.
* :mod:`repro.bench.report` -- table/series formatting helpers so every
  benchmark prints rows in the shape the paper reports.
* :mod:`repro.bench.parallel` -- fan independent sweep points out across
  a process pool (results stay bit-identical to a serial run).
"""

from repro.bench.micro import (
    fore_interface_stats,
    raw_bandwidth,
    raw_rtt,
    sba100_cost_breakup,
)
from repro.bench.parallel import parallel_map, sweep_workers
from repro.bench.report import Series, Table

__all__ = [
    "Series",
    "Table",
    "fore_interface_stats",
    "parallel_map",
    "raw_bandwidth",
    "raw_rtt",
    "sba100_cost_breakup",
    "sweep_workers",
]
