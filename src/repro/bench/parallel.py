"""Parallel execution of independent sweep points.

Every figure in the paper is regenerated by sweeping a parameter
(message size, window, write size) where each point builds its *own*
:class:`~repro.sim.Simulator` and runs to completion — the points share
no state, so they are embarrassingly parallel.  :func:`parallel_map`
fans them out across a ``ProcessPoolExecutor`` while preserving input
order, which keeps results bit-identical to a serial run regardless of
worker count.

Two layers sit in front of the raw fan-out:

* a **content-addressed result cache** (:mod:`repro.bench.cache`):
  points whose (function, parameters, source tree) triple has been
  computed before are served from disk and never re-simulated;
* **chunked work-stealing dispatch**: cache misses are split into
  chunks of a few points each and submitted individually, so idle
  workers pull the next pending chunk instead of being handed a fixed
  slice up front.  Sweep points vary wildly in cost (a 4 KB
  bandwidth point simulates far more cells than a 32 B one), and
  static partitioning leaves the pool waiting on whichever worker
  drew the expensive half.

Worker count resolution (first match wins):

1. explicit ``workers=`` argument;
2. the ``REPRO_BENCH_PROCS`` environment variable (``1`` forces serial);
3. ``min(os.cpu_count(), 8)``.

Any failure to stand up or keep the pool (sandboxes without semaphores,
a worker OOM-killed) falls back to computing serially in-process, so
benchmarks always complete.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.bench import cache

T = TypeVar("T")
R = TypeVar("R")

#: Hard ceiling on auto-detected workers; sweeps rarely have more points.
MAX_AUTO_WORKERS = 8

#: Target chunks per worker: small enough to amortize submission
#: overhead, large enough that the pool can rebalance mid-sweep.
CHUNKS_PER_WORKER = 4


def sweep_workers() -> int:
    """Resolve the worker count from ``REPRO_BENCH_PROCS`` / CPU count.

    An explicit ``REPRO_BENCH_PROCS`` is taken literally — the user who
    sets it owns the oversubscription trade-off.
    """
    env = os.environ.get("REPRO_BENCH_PROCS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return min(os.cpu_count() or 1, MAX_AUTO_WORKERS)


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T]) -> List[R]:
    return [fn(item) for item in chunk]


def _dispatch(
    fn: Callable[[T], R], items: Sequence[T], workers: int
) -> List[R]:
    """Compute ``fn`` over ``items`` in order; parallel when it can be.

    Work is cut into ``~CHUNKS_PER_WORKER`` chunks per worker and each
    chunk is submitted separately: a worker that finishes early steals
    the next pending chunk from the queue.  Results are reassembled in
    input order, so the output is identical to a serial loop.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        from concurrent.futures import ProcessPoolExecutor

        chunk_size = max(1, len(items) // (workers * CHUNKS_PER_WORKER))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_chunk, fn, items[i : i + chunk_size])
                for i in range(0, len(items), chunk_size)
            ]
            results: List[R] = []
            for future in futures:
                results.extend(future.result())
            return results
    except (OSError, ImportError, RuntimeError):
        # No fork/semaphores here (restricted sandbox) or the pool died
        # under us: the serial path always works.
        return [fn(item) for item in items]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` across processes, preserving order.

    ``fn`` must be picklable (a module-level function); each call should
    be an independent simulation.  With one worker (or one item) this is
    a plain in-process loop.  Previously-computed points are served from
    the content-addressed cache (see :mod:`repro.bench.cache`); only the
    misses are dispatched.
    """
    items = list(items)
    if workers is None:
        workers = sweep_workers()
    workers = min(workers, len(items))
    if not cache.enabled():
        return _dispatch(fn, items, workers)
    results: List[Optional[R]] = [None] * len(items)
    pending: List[Tuple[int, T, str]] = []
    for index, item in enumerate(items):
        key = cache.cache_key(fn, item)
        hit, value = cache.lookup(key)
        if hit:
            results[index] = value
        else:
            pending.append((index, item, key))
    if pending:
        computed = _dispatch(
            fn, [item for _, item, _ in pending], min(workers, len(pending))
        )
        for (index, _, key), value in zip(pending, computed):
            results[index] = value
            cache.store(key, value)
    return results  # type: ignore[return-value]
