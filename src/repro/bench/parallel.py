"""Parallel execution of independent sweep points.

Every figure in the paper is regenerated by sweeping a parameter
(message size, window, write size) where each point builds its *own*
:class:`~repro.sim.Simulator` and runs to completion — the points share
no state, so they are embarrassingly parallel.  :func:`parallel_map`
fans them out across a ``ProcessPoolExecutor`` while preserving input
order, which keeps results bit-identical to a serial run regardless of
worker count.

The points are cut into chunks of a few points each and every chunk is
submitted on its own, so an idle worker pulls the next pending chunk
instead of being handed a fixed slice up front.  Sweep points vary
wildly in cost (a 4 KB bandwidth point simulates far more cells than a
32 B one), and static partitioning leaves the pool waiting on whichever
worker drew the expensive half.

Worker count resolution (first match wins):

1. explicit ``workers=`` argument;
2. the ``REPRO_BENCH_PROCS`` environment variable (``1`` forces serial);
3. ``min(os.cpu_count(), 8)``.

If the pool itself cannot be stood up or kept (sandboxes without
semaphores, a worker OOM-killed), the sweep is computed serially
in-process instead, so benchmarks always complete.  An exception raised
by a sweep point is not a pool failure: it propagates once, and no
point is computed twice.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

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


def _pool_map(
    fn: Callable[[T], R], items: Sequence[T], workers: int
) -> Optional[List[R]]:
    """``fn`` over ``items`` on a process pool; None if the pool fails.

    Work is cut into ``~CHUNKS_PER_WORKER`` chunks per worker and each
    chunk is submitted separately: a worker that finishes early steals
    the next pending chunk from the queue.  Results are reassembled in
    input order.  An exception from ``fn`` cancels the chunks not yet
    started and propagates.
    """
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(max_workers=workers)
    except (OSError, ImportError, NotImplementedError):
        return None  # no fork or semaphores here (restricted sandbox)
    try:
        chunk_size = max(1, len(items) // (workers * CHUNKS_PER_WORKER))
        try:
            futures = [
                pool.submit(_run_chunk, fn, items[i : i + chunk_size])
                for i in range(0, len(items), chunk_size)
            ]
        except (OSError, BrokenProcessPool):
            return None  # workers could not be started
        results: List[R] = []
        try:
            for future in futures:
                results.extend(future.result())
        except BrokenProcessPool:
            return None  # a worker died under us
        return results
    finally:
        pool.shutdown(cancel_futures=True)


def _dispatch(
    fn: Callable[[T], R], items: Sequence[T], workers: int
) -> List[R]:
    """Compute ``fn`` over ``items`` in order; parallel when it can be."""
    if workers > 1 and len(items) > 1:
        results = _pool_map(fn, items, workers)
        if results is not None:
            return results
    return [fn(item) for item in items]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` across processes, preserving order.

    ``fn`` must be picklable (a module-level function); each call should
    be an independent simulation.  ``workers`` defaults to
    :func:`sweep_workers`.  With one worker or one item, or when no
    process pool can be kept, this is a plain in-process loop; the
    result is the same list either way.
    """
    items = list(items)
    if workers is None:
        workers = sweep_workers()
    return _dispatch(fn, items, min(workers, len(items)))
