# simlint: disable-file=wall-clock -- the child times the simulator's
# own host speed, not simulated time.
"""One benchmark child process; ``run.py`` starts a fresh one per job.

    python child.py setup WORKLOAD
    python child.py run WORKLOAD --seed S --seconds T [--trace]
    python child.py reference WORKLOAD

Each mode prints one JSON object as its last stdout line.  ``setup``
times importing ``repro`` and the workload's modules.  ``run`` times
whole passes over the workload's points, each pass in its own
seed-permuted order, checking every result against
``reference.json``; with ``--trace`` it then profiles one more pass for
the per-layer ledger.  ``reference`` runs one pass in driver order and
prints each point's canonical result.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List

import calib
import layers
import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Failure messages printed per child before the rest are only counted.
MAX_REPORTED_FAILURES = 5


class Checker:
    """Runs points, checks each result against the reference and counts
    failures."""

    def __init__(self, reference: Dict[str, object]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, point: workloads.Point, clock=time.perf_counter) -> float:
        """Run one point; returns the seconds its call took on ``clock``.

        The check and a garbage collection follow the timed call, so
        every point starts from the same collected heap: its time and
        the process's peak memory do not depend on which point ran
        before it.
        """
        self.attempted += 1
        t0 = clock()
        try:
            value = point.run()
        except Exception:
            elapsed = clock() - t0
            self._fail(f"{point.key} raised:\n{traceback.format_exc()}")
        else:
            elapsed = clock() - t0
            got, expected = workloads.canonical(value), self.reference.get(point.key)
            if got != expected:
                self._fail(f"{point.key} differs from reference.json: "
                           f"got {got!r}, expected {expected!r}")
        gc.collect()
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAIL {message}", file=sys.stderr)


class SimCounters:
    """Constructor hook on ``repro.sim.Simulator`` (traced child only).

    Every simulator built during a point is read after the point and
    then dropped; holding them would keep every point's simulated world
    alive until the pass ends.  ``stats()`` keys are read with a
    default of 0, so a scheduler without a mechanism reports that the
    mechanism did nothing.
    """

    KEYS = ("schedules", "front_inserts", "far_spills", "timer_pool_hits",
            "timer_pool_misses", "batch_fused")

    def __init__(self):
        from repro.sim import Simulator

        self._cls = Simulator
        self._original = Simulator.__dict__["__new__"]
        self._live: List[object] = []
        self.simulators = 0
        self.events = 0
        self.totals = dict.fromkeys(self.KEYS, 0)

    def __enter__(self) -> "SimCounters":
        original, live = self._original.__func__, self._live

        def hooked_new(cls):
            sim = original(cls)
            live.append(sim)
            return sim

        self._cls.__new__ = staticmethod(hooked_new)
        return self

    def __exit__(self, *exc) -> None:
        self._cls.__new__ = self._original
        self.collect()

    def collect(self) -> None:
        for sim in self._live:
            self.simulators += 1
            self.events += sim.events_processed
            stats = sim.stats()
            for key in self.KEYS:
                self.totals[key] += stats.get(key, 0)
        self._live.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup(workload: str) -> dict:
    t0 = time.perf_counter()
    workloads.points(workload)
    return {"setup_s": time.perf_counter() - t0}


def timed_passes(points, rng, seconds: float, checker: Checker) -> dict:
    """Whole passes until another would overrun ``seconds`` (at least one).

    ``wall_raw_s`` sums, over the points, each point's median across
    passes: the time of one pass with the host's bursts, which hit
    single points, voted out.  ``wall_s`` does the same after scaling
    each point's time by the calibration samples taken while it ran.
    """
    start = time.perf_counter()
    runs = []  # (point index, perf_counter at its start, seconds)
    passes = 0
    with calib.Sampler() as sampler:
        while True:
            for i in rng.sample(range(len(points)), len(points)):
                t0 = time.perf_counter()
                runs.append((i, t0, checker.run(points[i], sampler.clock)))
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed * (passes + 1) / passes > seconds:
                break
    raw: List[List[float]] = [[] for _ in points]
    scaled: List[List[float]] = [[] for _ in points]
    for i, t0, seconds_taken in runs:
        raw[i].append(seconds_taken)
        scaled[i].append(seconds_taken * sampler.scale_at(t0, t0 + seconds_taken))
    return {
        "wall_s": sum(median(t) for t in scaled),
        "wall_raw_s": sum(median(t) for t in raw),
        "scale": sampler.scale(),
        "passes": passes,
        "samples": len(sampler.samples),
        "calib_s": calib.K_REF_S / sampler.scale(),
    }


def traced_pass(points, rng, checker: Checker, untraced: dict) -> dict:
    """One cProfile pass with the simulator counters armed.

    No sampler runs here (the profiler would slow and count it), so
    times are scaled by the untraced passes' calibration.
    """
    profiler = cProfile.Profile()
    with SimCounters() as counters:
        t0 = time.perf_counter()
        profiler.enable()
        point_s = 0.0
        for point in rng.sample(points, len(points)):
            point_s += checker.run(point)
            counters.collect()
        profiler.disable()
        raw_s = time.perf_counter() - t0
    factor, untraced_s = untraced["scale"], untraced["wall_s"]
    ledger = layers.ledger(pstats.Stats(profiler))
    total = sum(row["self_s"] for row in ledger.values())
    metrics = {}
    for name, row in ledger.items():
        metrics[f"{name}.self_s"] = row["self_s"] * factor
        metrics[f"{name}.share"] = _ratio(row["self_s"], total)
        metrics[f"{name}.calls"] = row["calls"]
    t = counters.totals
    metrics.update({
        "sim.simulators": counters.simulators,
        "sim.events": counters.events,
        "sim.us_per_event": _ratio(untraced_s * 1e6, counters.events),
        "sim.front_absorption": _ratio(t["front_inserts"], t["schedules"]),
        "sim.far_spills": t["far_spills"],
        "sim.timer_pool_hit_rate": _ratio(
            t["timer_pool_hits"], t["timer_pool_hits"] + t["timer_pool_misses"]
        ),
        "sim.batch_fused_ratio": _ratio(t["batch_fused"], counters.events),
        "trace_overhead": _ratio(point_s * factor, untraced_s),
    })
    return {"traced_raw_s": raw_s, "profiled_s": total, "metrics": metrics}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    points = workloads.points(workload)
    checker = Checker(json.loads(REFERENCE.read_text()))
    # Everything alive now lives for the whole run: freezing it keeps
    # the collection after each point down to that point's garbage.
    gc.collect()
    gc.freeze()
    report = timed_passes(points, random.Random(seed), seconds, checker)
    # ru_maxrss is in KiB on Linux
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        # A fresh generator: the traced order depends on the seed alone,
        # not on how many untraced passes fitted in the time.
        report["trace"] = traced_pass(points, random.Random(seed), checker, report)
    report["attempted"] = checker.attempted
    report["failed"] = checker.failed
    return report


def reference(workload: str) -> dict:
    return {
        p.key: workloads.canonical(p.run()) for p in workloads.points(workload)
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run", "reference"))
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "run" and args.seconds is None:
        parser.error("run needs --seconds")
    if args.mode == "setup":
        out = setup(args.workload)
    elif args.mode == "run":
        out = run(args.workload, args.seed, args.seconds, args.trace)
    else:
        out = reference(args.workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
