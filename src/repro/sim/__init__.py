"""Discrete-event simulation engine underlying every substrate in this repo.

The engine is a small, self-contained kernel in the style of SimPy:
processes are Python generators that ``yield`` :class:`Event` objects
(timeouts, bare events, other processes, or conditions) and are resumed
when those events trigger.  Simulated time is a float measured in
*microseconds* throughout the repository, matching the units the U-Net
paper reports.

Public surface:

* :class:`Simulator` -- the event loop (``now``, ``run``, ``process``,
  ``timeout``, ``event``).
* :class:`Event`, :class:`Timeout`, :class:`Process` -- awaitable things.
* :class:`AnyOf` -- the first of several events.
* :class:`Store` -- FIFO channel: blocking ``get``, non-blocking
  ``try_put``/``try_get``.
* :class:`Resource` -- counted resource with priority-FIFO queueing,
  held with ``use`` (processes) or ``hold`` (callbacks);
  ``request``/``release`` are kept as the reference they are tested
  against.
* :class:`StatSeries` -- sample statistics (mean, percentiles).
"""

from repro.sim.engine import (
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.trace import StatSeries

__all__ = [
    "AnyOf",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "StatSeries",
    "Store",
    "Timeout",
]
