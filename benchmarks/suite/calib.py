# simlint: disable-file=wall-clock,direct-heapq -- this kernel measures
# the host's own speed; its heap is a plain list, not a simulator queue.
"""Frozen calibration kernels: yardsticks for the host's current speed.

The benchmark's host can change speed by up to 2x within minutes, and
in its noisy phases it slows in bursts of 10-300 ms (CPU time tracks
wall time and steal stays near 0, so it is the core itself slowing,
not preemption).  Seconds measured on it are scaled to seconds on the
reference host by ``K_REF_S / k``, where ``k`` is the harmonic mean
of this kernel's ~1 ms sub-runs sampled while the span ran.

The kernel is pure Python and does the same kind of work the simulator
does (tuple heap pushes and pops, attribute traffic on ``__slots__``
objects, integer arithmetic) but imports nothing from ``repro``, so no
change to the simulator can move it.

Set-up is mostly importing, which leans on the loader, unmarshalling
and the OS, and slows far less than the interpreter loop in the host's
slow phases.  It has its own yardstick, :data:`IMPORT_KERNEL`: a fresh
interpreter importing a fixed set of standard-library modules.

Never edit either kernel: ``K_REF_S``, ``IMPORT_REF_S`` and every
recorded trajectory point were measured with this exact code.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import statistics
import time
from typing import List, Sequence

#: Median sub-run seconds on the reference host (2-vCPU x86-64 VM,
#: CPython 3.11) in its fast state, measured with this exact kernel.
K_REF_S = 0.00086

#: Heap operations per sub-run (~1 ms on the reference host).
_OPS = 1_200

#: Seconds of wall time between the sampler's sub-runs.
SAMPLE_INTERVAL_S = 0.05

#: Samples up to this many seconds before or after a span of work count
#: towards its factor.
WINDOW_S = 0.1

#: Standard-library modules the set-up yardstick imports.
_IMPORTS = (
    "argparse", "json", "decimal", "email.mime.multipart", "http.client",
    "logging", "unittest", "xml.dom.minidom", "csv", "ipaddress", "fractions",
    "statistics", "asyncio", "tomllib", "concurrent.futures", "sqlite3",
    "zipfile", "tarfile", "configparser",
)

#: Source for ``python -c``: times importing ``_IMPORTS`` in a fresh
#: interpreter and prints ``{"import_s": seconds}``.
IMPORT_KERNEL = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    f"for name in {_IMPORTS!r}:\n"
    "    __import__(name)\n"
    "print('{\"import_s\": %r}' % (time.perf_counter() - t0))\n"
)

#: Median seconds of :data:`IMPORT_KERNEL` on the reference host,
#: measured with this exact module list.
IMPORT_REF_S = 0.0633


class _Item:
    __slots__ = ("key", "hits")

    def __init__(self, key: int):
        self.key = key
        self.hits = 0


def _subrun() -> float:
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    items = [_Item(i) for i in range(64)]
    x = 12345
    t0 = time.perf_counter()
    for seq in range(_OPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        item = items[x & 63]
        item.hits += 1
        push(heap, (x >> 8, seq, item))
        if len(heap) > 256:
            _when, _seq, done = pop(heap)
            done.key = (done.key + done.hits) & 0xFFFF
    return time.perf_counter() - t0


def scale(samples: Sequence[float]) -> float:
    """Factor that maps host seconds measured while ``samples`` were
    taken to seconds on the reference host.

    The host flips between a fast and a slow state, so samples are
    bimodal and their median jumps from one state to the other.  Taken
    at even steps of wall time, sample ``k`` says the host did
    ``K_REF_S / k`` reference seconds of work per second there; the
    work in the span is the mean of that, ``K_REF_S`` over the harmonic
    mean of the samples.
    """
    return K_REF_S / statistics.harmonic_mean(samples)


class Sampler:
    """Samples the host's speed all through a timed span.

    While armed, a ``SIGALRM`` handler runs one sub-run every
    :data:`SAMPLE_INTERVAL_S` of wall time, between two bytecodes of
    whatever the main thread is running.  Readings taken only at the
    edges of a span miss bursts and shifts inside it; these samples
    land wherever the work is.  The handler's own time is kept out of
    :meth:`clock`, which times the work alone.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: ``perf_counter`` time at which each sample was taken
        self.stamps: List[float] = []
        self._spent = 0.0

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        # A collection inside the sub-run would walk whatever young
        # objects the measured code left behind, so the yardstick would
        # depend on how that code allocates.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(_subrun())
        finally:
            if was_enabled:
                gc.enable()
        self.stamps.append(t0)
        self._spent += time.perf_counter() - t0

    def clock(self) -> float:
        """``perf_counter`` minus the seconds spent sampling."""
        return time.perf_counter() - self._spent

    def scale(self) -> float:
        """The factor for the whole sampled span."""
        return scale(self.samples)

    def scale_at(self, start: float, end: float) -> float:
        """The factor for work done between two ``perf_counter`` times,
        from the samples taken within :data:`WINDOW_S` of that span, or
        from all samples if none was."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        return scale(self.samples[lo:hi]) if hi > lo else self.scale()

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
