# simlint: disable-file=wall-clock -- compares wall-clock benchmark runs.
"""Perf-regression gate: fresh bench_perf run vs. the committed baseline.

Re-measures engine throughput (and, outside ``--engine-only``
mode, the quick figure sweeps) on the current tree and compares against the
numbers committed in ``BENCH_perf.json``.  Throughput may drift with
machine noise, so a tolerance band applies: the gate fails only when a
fresh rate drops more than ``--tolerance`` (default 25%) below the
baseline, i.e. ``fresh < baseline * 0.75``.  Wall-clock times use the
reciprocal band (``fresh > baseline / 0.75``).

Usage::

    PYTHONPATH=src python benchmarks/perf_gate.py            # CI gate
    PYTHONPATH=src python benchmarks/perf_gate.py --engine-only
    PYTHONPATH=src python benchmarks/perf_gate.py --fresh out.json

Exit status: 0 pass, 1 regression, 2 usage/baseline error.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import bench_perf

BASELINE = bench_perf.OUTPUT

#: dotted paths into the report; True = higher is better (a rate),
#: False = lower is better (a wall time).
RATE_KEYS = [
    "engine.callback_events_per_sec",
    "engine.process_events_per_sec",
]
WALL_KEYS = [
    "cache.cold_wall_s",
]
#: Schema-gated only (presence, no tolerance compare): the RTT tails
#: are deterministic simulated time, so a drift there is caught by the
#: attribution-parity gate in CI, not a wall-clock band.  The gate
#: still insists the section exists so bench reports can't silently
#: lose the percentile data.
PCT_KEYS = [
    "percentiles.fig3_rtt_us.p50",
    "percentiles.fig3_rtt_us.p99",
    "percentiles.fig3_rtt_us.p999",
]
#: Schema-gated section backing the absolute contract floor below; a
#: report without it predates the checkpointing work and cannot be
#: gated (exit 2, same as any other schema miss).
CONTRACT_KEYS = [
    "warm_suffix_replay.fork_available",
]

#: Absolute floor measured fresh each run, not baseline-relative: the
#: checkpointed warm replay promises a minimum speedup over its own
#: same-run cold rebuilds, so machine speed cancels out of the ratio.
WARM_REPLAY_SPEEDUP_FLOOR = 5.0


def _dig(report: dict, dotted: str):
    node = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_schema(report: dict, engine_only: bool) -> list[str]:
    """Gated keys missing from one report.

    The gate refuses to run against a report that predates a gated
    section -- silently skipping the key would wave regressions through.
    """
    gated = list(RATE_KEYS) + (
        []
        if engine_only
        else list(WALL_KEYS) + list(PCT_KEYS) + list(CONTRACT_KEYS)
    )
    return [k for k in gated if _dig(report, k) is None]


def compare(baseline: dict, fresh: dict, tolerance: float,
            engine_only: bool = False) -> list[str]:
    """Return a list of regression messages (empty = gate passes)."""
    failures = []
    wall_keys = [] if engine_only else list(WALL_KEYS)
    for dotted in RATE_KEYS:
        base, new = _dig(baseline, dotted), _dig(fresh, dotted)
        if base is None or new is None or not base:
            continue
        floor = base * (1.0 - tolerance)
        verdict = "FAIL" if new < floor else "ok"
        print(f"{verdict:>4}  {dotted}: {new:,.0f} vs baseline {base:,.0f} "
              f"(floor {floor:,.0f})")
        if new < floor:
            failures.append(
                f"{dotted} regressed: {new:,.0f} < {floor:,.0f} "
                f"({tolerance:.0%} below baseline {base:,.0f})"
            )
    for dotted in wall_keys:
        base, new = _dig(baseline, dotted), _dig(fresh, dotted)
        if base is None or new is None or not base:
            continue
        ceiling = base / (1.0 - tolerance)
        verdict = "FAIL" if new > ceiling else "ok"
        print(f"{verdict:>4}  {dotted}: {new:.3f}s vs baseline {base:.3f}s "
              f"(ceiling {ceiling:.3f}s)")
        if new > ceiling:
            failures.append(
                f"{dotted} regressed: {new:.3f}s > {ceiling:.3f}s "
                f"({tolerance:.0%} over baseline {base:.3f}s)"
            )
    if not engine_only:
        failures.extend(contract_checks(fresh))
    return failures


def contract_checks(fresh: dict) -> list[str]:
    """Absolute floors on the fresh report (no baseline involved)."""
    failures = []
    warm = _dig(fresh, "warm_suffix_replay")
    if isinstance(warm, dict) and warm.get("fork_available"):
        if warm.get("identical") is False:
            failures.append(
                "warm_suffix_replay.identical: fork-cloned results "
                "diverged from cold rebuilds (correctness)"
            )
        speedup = warm.get("speedup")
        if speedup is not None:
            verdict = "FAIL" if speedup < WARM_REPLAY_SPEEDUP_FLOOR else "ok"
            print(f"{verdict:>4}  warm_suffix_replay.speedup: {speedup}x "
                  f"(floor {WARM_REPLAY_SPEEDUP_FLOOR}x)")
            if speedup < WARM_REPLAY_SPEEDUP_FLOOR:
                failures.append(
                    f"warm_suffix_replay.speedup below contract: "
                    f"{speedup}x < {WARM_REPLAY_SPEEDUP_FLOOR}x over "
                    f"same-run cold rebuilds"
                )
    elif isinstance(warm, dict):
        print("  ok  warm_suffix_replay: fork unavailable here; "
              "speedup floor skipped")
    # The percentile section must describe a real distribution: a
    # single-size ping-pong collapses every sample into one histogram
    # bucket and the tail report is vacuous (the PR 10 regression).
    pct = _dig(fresh, "percentiles.fig3_rtt_us")
    if isinstance(pct, dict):
        p50, p999 = pct.get("p50"), pct.get("p999")
        count = pct.get("count", 0)
        if p50 is not None and p999 is not None:
            degenerate = p999 < p50 or (count >= 50 and p999 <= p50)
            verdict = "FAIL" if degenerate else "ok"
            print(f"{verdict:>4}  percentiles.fig3_rtt_us: p50 {p50} <= "
                  f"p999 {p999} (n={count})")
            if degenerate:
                failures.append(
                    f"percentiles.fig3_rtt_us degenerate: p999 {p999} not "
                    f"above p50 {p50} with {count} samples"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=str(BASELINE))
    parser.add_argument(
        "--fresh", default=None,
        help="pre-computed bench_perf report; omitted = measure now",
    )
    parser.add_argument("--tolerance", type=float, default=0.25)
    parser.add_argument(
        "--engine-only", action="store_true",
        help="skip figure sweeps; gate engine throughput (fast)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.tolerance < 1.0:
        parser.error("--tolerance must be in (0, 1)")

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; nothing to gate against")
        return 2
    baseline = json.loads(baseline_path.read_text())

    if args.fresh:
        fresh = json.loads(Path(args.fresh).read_text())
    else:
        if args.engine_only:
            fresh = {"engine": bench_perf.engine_events_per_sec(repeats=3)}
        else:
            with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
                bench_perf.main(["--quick", "--output", tmp.name])
                fresh = json.loads(Path(tmp.name).read_text())

    reports = [(baseline, f"baseline {baseline_path}")]
    if args.fresh:
        # A measured-now fresh report is complete by construction; only a
        # pre-computed one can be missing gated sections.
        reports.append((fresh, f"fresh report {args.fresh}"))
    for report, label in reports:
        missing = check_schema(report, args.engine_only)
        if missing:
            print(
                f"perf gate: {label} is missing gated section(s) "
                f"{', '.join(missing)} -- older bench_perf schema? "
                f"regenerate with: PYTHONPATH=src python benchmarks/bench_perf.py"
            )
            return 2

    failures = compare(baseline, fresh, args.tolerance, args.engine_only)
    if failures:
        print(f"\nperf gate FAILED ({len(failures)} regression(s)):")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
