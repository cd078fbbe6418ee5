"""Schema of the committed perf trajectory, ``BENCH_trajectory.jsonl``.

Each line is one record appended by ``benchmarks/suite/run.py
--history``: the commit it measured, every workload of
``BENCHMARK.json`` and a result whose points all matched the
reference.  A line from a failing or partial run would make the
trajectory compare unlike things.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TRAJECTORY = ROOT / "BENCH_trajectory.jsonl"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}


def _records():
    return [
        pytest.param(json.loads(line), id=f"line{n}")
        for n, line in enumerate(TRAJECTORY.read_text().splitlines(), 1)
    ]


def test_trajectory_is_not_empty():
    assert _records()


@pytest.mark.parametrize("record", _records())
def test_trajectory_line_schema(record):
    assert re.fullmatch(r"[0-9a-f]{40}", record["commit"] or "")
    assert isinstance(record["dirty"], bool)
    assert set(record["workloads"]) == WORKLOADS
    result = record["result"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    if not record["trace"]:
        for workload, report in record["workloads"].items():
            metrics = report["metrics"]
            assert set(metrics) == END_TO_END, workload
            for value in metrics.values():
                assert math.isfinite(value) and value > 0, workload
