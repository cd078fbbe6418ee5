"""repro.obs.flight -- bounded flight recorder for post-mortem dumps.

A :class:`FlightRecorder` keeps the most recent completed spans in a
bounded ring (``collections.deque(maxlen=...)``).  It is fed by
:class:`repro.obs.spans.SpanCollector` whenever a span ends, so the cost
when armed is one deque append per span and the cost when not armed is
one attribute load (the collector checks ``self.flight is None``).

When a runtime sanitizer trips, the ring is rendered through the
normal Perfetto exporter and written to disk, so the last ``limit``
spans leading up to the failure can be opened in a trace viewer even
though the run never finished.  The dump path is recorded on
``FlightRecorder.last_dump_path``.
"""

from __future__ import annotations

import os
import tempfile
from collections import deque
from typing import Any, List, Optional

__all__ = ["FlightRecorder", "DEFAULT_LIMIT", "ring_limit_from_env"]

#: Default ring capacity (spans).  Small enough to dump in milliseconds,
#: large enough to cover several round trips of every layer's spans.
DEFAULT_LIMIT = 4096

#: Environment knob: ``REPRO_OBS_FLIGHT=1`` arms the recorder at the
#: default capacity, ``REPRO_OBS_FLIGHT=<n>`` sets the capacity.
ENV_VAR = "REPRO_OBS_FLIGHT"


def ring_limit_from_env() -> Optional[int]:
    """Ring capacity requested via ``REPRO_OBS_FLIGHT``, or ``None``
    when the recorder should stay off."""
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw or raw == "0":
        return None
    try:
        n = int(raw)
    except ValueError:
        return DEFAULT_LIMIT
    if n == 1:
        # "=1" is the boolean arm switch, not a capacity-1 request.
        return DEFAULT_LIMIT
    return n if n > 0 else None


class FlightRecorder:
    """Bounded ring of recently completed spans."""

    __slots__ = ("_ring", "limit", "recorded", "last_dump_path")

    def __init__(self, limit: int = DEFAULT_LIMIT):
        if limit <= 0:
            raise ValueError(f"flight recorder limit must be > 0, got {limit}")
        self._ring: deque = deque(maxlen=limit)
        self.limit = limit
        #: Total spans ever recorded (>= len(ring) once it wraps).
        self.recorded = 0
        #: Path of the most recent crash dump, "" until a trip happens.
        self.last_dump_path = ""

    def record(self, span: Any) -> None:
        self._ring.append(span)
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._ring)

    def snapshot(self) -> List[Any]:
        return list(self._ring)

    def default_dump_path(self) -> str:
        return os.path.join(
            tempfile.gettempdir(), f"OBS_flight_pid{os.getpid()}.json"
        )

    def dump(self, path: Optional[str] = None, reason: str = "") -> str:
        """Write the ring as a Perfetto trace; returns the path written.

        The dump is a full, valid trace-event JSON (loadable in
        ui.perfetto.dev) built from a throwaway collector that holds
        only the ring contents -- the live collector is not touched.
        """
        # Local imports: flight must stay importable before spans/export
        # (obs/__init__ arms it at import time).
        from repro.obs import export as _export
        from repro.obs import spans as _spans

        if path is None:
            path = self.default_dump_path()
        shim = _spans.SpanCollector()
        shim.spans = self.snapshot()
        shim.counters["flight.recorded"] = self.recorded
        shim.counters["flight.ring_len"] = len(self._ring)
        if reason:
            shim.counters["flight.trip"] = 1
        _export.write_trace(shim, path)
        self.last_dump_path = path
        return path

    def dump_on_trip(self, reason: str) -> str:
        """Crash-path dump: never raises (a failed dump must not mask
        the original error)."""
        try:
            return self.dump(reason=reason)
        except Exception:
            return ""
