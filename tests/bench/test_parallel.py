"""``parallel_map``: worker count, order, and failure handling."""

import os

import pytest

from repro.bench import parallel_map


def _busy(n):
    """Cost grows with ``n``, so pool chunks finish out of order."""
    return n, sum(i * i for i in range(n * 2000))


def _logged(point):
    log_path, x = point
    with open(log_path, "a") as fh:
        fh.write(f"{os.getpid()} {x}\n")
    if x == 3:
        raise RuntimeError(f"point {x} failed")
    return x * x


def _dies_in_worker(point):
    parent_pid, x = point
    if os.getpid() != parent_pid:
        os._exit(1)  # a worker killed mid-sweep, as by the OOM killer
    return x * x


def test_pool_matches_serial_in_input_order():
    items = [40, 1, 25, 0, 60, 3, 7, 50, 2]
    serial = parallel_map(_busy, items, workers=1)
    assert [n for n, _ in serial] == items
    assert parallel_map(_busy, items, workers=2) == serial


def test_empty_items():
    assert parallel_map(_busy, [], workers=2) == []
    assert parallel_map(_busy, []) == []


def test_failing_point_raises_once_without_serial_rerun(tmp_path):
    log = tmp_path / "calls.log"
    with pytest.raises(RuntimeError, match="point 3 failed"):
        parallel_map(_logged, [(str(log), x) for x in range(8)], workers=2)
    calls = [line.split() for line in log.read_text().splitlines()]
    points = [int(x) for _, x in calls]
    assert points.count(3) == 1, calls
    assert len(points) == len(set(points)), calls  # no point computed twice
    assert str(os.getpid()) not in {pid for pid, _ in calls}, calls


def test_dead_worker_falls_back_to_serial():
    items = [(os.getpid(), x) for x in range(4)]
    assert parallel_map(_dies_in_worker, items, workers=2) == [0, 1, 4, 9]


def test_sweep_workers_caps_auto_budget(monkeypatch):
    from repro.bench import parallel

    monkeypatch.delenv("REPRO_BENCH_PROCS", raising=False)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
    assert parallel.sweep_workers() == 8
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
    assert parallel.sweep_workers() == parallel.MAX_AUTO_WORKERS == 8
    # an explicit override is taken literally, above the cap or not
    monkeypatch.setenv("REPRO_BENCH_PROCS", "12")
    assert parallel.sweep_workers() == 12
    monkeypatch.setenv("REPRO_BENCH_PROCS", "garbage")
    assert parallel.sweep_workers() == 1
