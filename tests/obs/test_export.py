"""Golden schema checks for the Chrome trace_event / Perfetto export."""

import json

from repro import obs
from repro.obs import export
from repro.obs.spans import SpanCollector

#: Fields every complete ("X") event must carry, per the trace_event spec.
X_REQUIRED = {"ph", "name", "cat", "pid", "tid", "ts", "dur", "args"}
C_REQUIRED = {"ph", "name", "pid", "tid", "ts", "args"}
M_REQUIRED = {"ph", "name", "pid", "tid", "args"}


def _sample_collector():
    col = SpanCollector()
    root = col.begin(0.0, "roundtrip", "bench", host="alice")
    tx = col.begin(1.0, "tx_single", "ni_tx", host="alice")
    col.annotate(tx, bytes=32, cells=1)
    col.end(tx, 9.0)
    col.add_complete(9.0, 12.0, "cell", "wire", host="link.alice")
    col.end(root, 20.0)
    col.begin(0.0, "never_ended", "host", host="bob")  # must be skipped
    col.sample(3.0, "ring.send.depth", 2, host="alice")
    col.sample(5.0, "ring.send.depth", 1, host="alice")
    col.count("aal5.pdus_reassembled", 4)
    return col


def test_trace_events_schema():
    doc = export.to_trace_events(_sample_collector())
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = doc["traceEvents"]
    by_ph = {}
    for event in events:
        by_ph.setdefault(event["ph"], []).append(event)
        required = {"X": X_REQUIRED, "C": C_REQUIRED, "M": M_REQUIRED}[event["ph"]]
        assert required <= set(event), event
    # 3 closed spans; the open one is skipped
    assert len(by_ph["X"]) == 3
    assert len(by_ph["C"]) == 2
    # metadata names every process and every layer thread
    process_names = {
        e["args"]["name"] for e in by_ph["M"] if e["name"] == "process_name"
    }
    assert process_names == {"alice", "link.alice"}
    thread_names = {
        e["args"]["name"] for e in by_ph["M"] if e["name"] == "thread_name"
    }
    assert thread_names == {"bench", "ni_tx", "wire"}


def test_trace_events_times_are_microseconds_verbatim():
    doc = export.to_trace_events(_sample_collector())
    tx = next(e for e in doc["traceEvents"] if e.get("name") == "tx_single")
    assert tx["ts"] == 1.0 and tx["dur"] == 8.0
    assert tx["cat"] == "ni_tx"
    assert tx["args"]["bytes"] == 32
    assert tx["args"]["parent_sid"] == 1  # the bench root


def test_layer_threads_share_lane_ids_across_hosts():
    col = SpanCollector()
    a = col.begin(0.0, "x", "ni_tx", host="alice")
    col.end(a, 1.0)
    b = col.begin(0.0, "y", "ni_tx", host="bob")
    col.end(b, 1.0)
    doc = export.to_trace_events(col)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert xs[0]["tid"] == xs[1]["tid"]
    assert xs[0]["pid"] != xs[1]["pid"]


def test_write_trace_is_loadable_json(tmp_path):
    path = tmp_path / "trace.json"
    n = export.write_trace(_sample_collector(), str(path))
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == n
    assert doc["otherData"]["generator"] == "repro.obs"
    assert doc["otherData"]["counters"] == {
        "aal5.pdus_reassembled": 4
    }


def test_export_of_real_run_round_trips_through_json(tmp_path):
    from repro.bench import micro

    with obs.collecting() as col:
        micro.raw_rtt(32, n=2)
    path = tmp_path / "fig3.json"
    export.write_trace(col, str(path))
    doc = json.loads(path.read_text())
    cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"bench", "host", "ni_tx", "ni_rx", "wire", "switch"} <= cats
