"""Timeline export: Chrome trace_event / Perfetto JSON.

The exported object follows the trace_event "JSON Array Format" wrapped
in ``{"traceEvents": [...]}`` so both ``chrome://tracing`` and
https://ui.perfetto.dev load it directly.  Simulated time is already in
microseconds, which is exactly the ``ts``/``dur`` unit the format wants
-- no scaling.

Mapping:

* one *process* per host (and one for each infrastructure element that
  emits spans, e.g. links and switches),
* one *thread* per layer within a host, so the per-layer lanes line up
  under each other,
* spans become complete events (``ph: "X"``),
* counter samples become counter events (``ph: "C"``),
* process/thread names ride on metadata events (``ph: "M"``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.obs.spans import Span, SpanCollector

#: Stable lane order for layer threads within a host's process.
LAYER_ORDER = [
    "bench", "uam", "tcp", "udp", "ip", "kernel", "host",
    "ni_tx", "ni_rx", "wire", "switch",
]


def _lane(layer: str) -> int:
    try:
        return LAYER_ORDER.index(layer) + 1
    except ValueError:
        return len(LAYER_ORDER) + 1


def to_trace_events(collector: SpanCollector) -> Dict[str, object]:
    """Render a collector's spans and counter samples as trace_event JSON."""
    pids: Dict[str, int] = {}
    events: List[dict] = []

    def pid_of(host: str) -> int:
        key = host or "(global)"
        if key not in pids:
            pids[key] = len(pids) + 1
            events.append({
                "ph": "M", "name": "process_name", "pid": pids[key], "tid": 0,
                "args": {"name": key},
            })
        return pids[key]

    named_threads: Dict[Tuple[int, int], str] = {}

    def tid_of(pid: int, layer: str) -> int:
        tid = _lane(layer)
        if (pid, tid) not in named_threads:
            named_threads[(pid, tid)] = layer
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": layer},
            })
        return tid

    for span in collector.spans:
        if span.t1 is None:
            continue
        pid = pid_of(span.host)
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.layer,
            "pid": pid,
            "tid": tid_of(pid, span.layer),
            "ts": span.t0,
            "dur": span.t1 - span.t0,
            "args": _span_args(span),
        })
    for when, track, host, value in collector.samples:
        pid = pid_of(host)
        events.append({
            "ph": "C", "name": track, "pid": pid, "tid": 0,
            "ts": when, "args": {"value": value},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            **collector.snapshot(),
            "engine_profile": collector.engine_profile(),
        },
    }


def _span_args(span: Span) -> dict:
    args = {"sid": span.sid, "depth": span.depth}
    if span.parent is not None:
        args["parent_sid"] = span.parent.sid
    if span.attrs:
        args.update(span.attrs)
    return args


def write_trace(collector: SpanCollector, path: str) -> int:
    """Write the Perfetto/Chrome JSON to ``path``; returns event count."""
    doc = to_trace_events(collector)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))
    return len(doc["traceEvents"])
