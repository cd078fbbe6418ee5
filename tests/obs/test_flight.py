"""The flight recorder: bounded span ring + crash-path dumps."""

import json
import os

import pytest

from repro import obs
from repro.obs.flight import DEFAULT_LIMIT, FlightRecorder, ring_limit_from_env
from repro.obs.spans import SpanCollector


# -- ring bounds ----------------------------------------------------------

def test_ring_evicts_oldest_beyond_limit():
    rec = FlightRecorder(limit=3)
    col = SpanCollector()
    for i in range(5):
        sid = col.begin(float(i), f"s{i}", "test")
        col.end(sid, float(i) + 0.5)
        rec.record(col.spans[-1])
    assert len(rec) == 3
    assert rec.recorded == 5
    assert [s.name for s in rec.snapshot()] == ["s2", "s3", "s4"]


def test_nonpositive_limit_rejected():
    with pytest.raises(ValueError):
        FlightRecorder(limit=0)


# -- env knob -------------------------------------------------------------

def test_ring_limit_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_OBS_FLIGHT", raising=False)
    assert ring_limit_from_env() is None
    monkeypatch.setenv("REPRO_OBS_FLIGHT", "0")
    assert ring_limit_from_env() is None
    monkeypatch.setenv("REPRO_OBS_FLIGHT", "-5")
    assert ring_limit_from_env() is None
    monkeypatch.setenv("REPRO_OBS_FLIGHT", "256")
    assert ring_limit_from_env() == 256
    monkeypatch.setenv("REPRO_OBS_FLIGHT", "1")
    assert ring_limit_from_env() == DEFAULT_LIMIT  # boolean arm switch
    # "1" means "armed at the default size" in docs/CI, and any
    # unparseable value degrades to the default rather than crashing.
    monkeypatch.setenv("REPRO_OBS_FLIGHT", "yes")
    assert ring_limit_from_env() == DEFAULT_LIMIT


# -- dumps ----------------------------------------------------------------

def _recorder_with_spans(n=4, limit=16):
    rec = FlightRecorder(limit=limit)
    col = SpanCollector()
    for i in range(n):
        sid = col.begin(float(i), f"span{i}", "test")
        col.end(sid, float(i) + 0.25)
        rec.record(col.spans[-1])
    return rec


def test_dump_writes_valid_perfetto(tmp_path):
    rec = _recorder_with_spans(n=4)
    path = str(tmp_path / "flight.json")
    assert rec.dump(path=path, reason="unit test") == path
    assert rec.last_dump_path == path
    doc = json.loads(open(path).read())
    names = {e.get("name") for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert {"span0", "span1", "span2", "span3"} <= names
    counters = doc["otherData"]["counters"]["counters"]
    assert counters["flight.recorded"] == 4
    assert counters["flight.ring_len"] == 4
    assert counters["flight.trip"] == 1


def test_dump_default_path_embeds_pid():
    rec = FlightRecorder()
    path = rec.default_dump_path()
    assert f"pid{os.getpid()}" in path


def test_dump_on_trip_never_raises(monkeypatch):
    rec = _recorder_with_spans(n=1)

    def boom(*a, **kw):
        raise OSError("disk full")

    monkeypatch.setattr(FlightRecorder, "dump", boom)
    assert rec.dump_on_trip("kaboom") == ""


# -- collector integration ------------------------------------------------

def test_collecting_arms_the_flight_ring():
    with obs.collecting(flight=8) as col:
        assert col.flight is not None
        assert col.flight.limit == 8
        sid = col.begin(0.0, "armed", "test")
        col.end(sid, 1.0)
    assert col.flight.recorded == 1
    assert [s.name for s in col.flight.snapshot()] == ["armed"]


def test_collecting_without_flight_keeps_it_off():
    with obs.collecting() as col:
        assert col.flight is None
