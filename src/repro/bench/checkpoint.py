"""Phase-boundary checkpointing for sweeps that share a warmup prefix.

:mod:`repro.bench.cache` memoizes *whole* sweep points; this module
splits a point into two phases so the expensive half is computed once:

* a **warmup prefix** shared by every point of the sweep — building the
  cluster, booting protocol stacks, running warmup traffic until the
  world is in steady state;
* a per-point **suffix** — the short measurement that actually differs.

:func:`sweep` clones by **forking**: the warm world is built once
in-process and each point runs in a forked child against a
copy-on-write clone; results come back over a pipe.  This handles any
world, process/generator worlds included, and costs no serialization.
It falls back to rebuilding the warmup per point — with bit-identical
results, the A/B tests rely on it — when ``os.fork`` is unavailable or
``REPRO_SIM_CHECKPOINT=0``.  See DESIGN.md §12.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Iterable, List, Optional, TypeVar

from repro.bench import parallel

W = TypeVar("W")
T = TypeVar("T")
R = TypeVar("R")

#: process-wide counters, reported by benchmarks/bench_perf.py
forked_points = 0
rebuilt_points = 0


def enabled() -> bool:
    """True unless ``REPRO_SIM_CHECKPOINT=0`` disables fork cloning."""
    return os.environ.get("REPRO_SIM_CHECKPOINT", "1") != "0"


def _run_forked(world: W, run_point: Callable[[W, T], R], point: T) -> R:
    """Run one point in a forked child; the parent never sees the
    child's mutations, so ``world`` stays pristine for the next fork."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child process, exits below
        os.close(read_fd)
        status = 1
        try:
            payload = pickle.dumps(
                run_point(world, point), protocol=pickle.HIGHEST_PROTOCOL
            )
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            # never fall through to the parent's control flow
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, wait_status = os.waitpid(pid, 0)
    if wait_status != 0 or not payload:
        raise RuntimeError(
            f"checkpoint child for point {point!r} failed "
            f"(wait status {wait_status}, {len(payload)} bytes)"
        )
    return pickle.loads(payload)


def sweep(
    build_warm: Callable[[], W],
    run_point: Callable[[W, T], R],
    points: Iterable[T],
    use_fork: Optional[bool] = None,
) -> List[R]:
    """Run every point against a warmed world, cloning when possible.

    ``build_warm`` must be deterministic and ``run_point`` must not
    depend on anything outside ``world`` and ``point``: the contract is
    that *fork-clone-then-measure* and *rebuild-then-measure* produce
    identical results, which the A/B tests assert literally.  Results
    are returned in input order.
    """
    global forked_points, rebuilt_points
    points = list(points)
    if not points:
        return []
    if use_fork is None:
        use_fork = enabled() and parallel.fork_available()
    if use_fork:
        world = build_warm()
        results = [_run_forked(world, run_point, point) for point in points]
        forked_points += len(points)
        return results
    # Serial fallback: the warmup re-runs per point.  Slow but exactly
    # equivalent — each point still sees a freshly-warmed world.
    results = [run_point(build_warm(), point) for point in points]
    rebuilt_points += len(points)
    return results


def reset_counters() -> None:
    global forked_points, rebuilt_points
    forked_points = rebuilt_points = 0
