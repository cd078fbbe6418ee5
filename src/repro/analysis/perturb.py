"""Tie-break perturbation harness: CONFIRMED vs BENIGN races.

The dynamic detector (:mod:`repro.analysis.race`) flags *potential*
simulation races: same-timestamp heap entries that touch the same state
with no schedule edge between them.  Whether such a race matters is an
empirical question — do the events commute?  This harness answers it by
re-running a scenario under every same-timestamp tie-break order the
engine supports:

* ``fifo`` — insertion order, the engine's default (the baseline);
* ``lifo`` — reversed tie order, the most adversarial deterministic
  perturbation;
* ``random`` × N seeds — seeded shuffles of each tie group;
* ``hashseed`` — fifo again, but in a child interpreter
  (``python -m repro.analysis.perturb --emit NAME``) under a
  ``PYTHONHASHSEED`` different from this one's, so any set iteration
  or other hash-order dependence shows up as a different result.

Each run records the final metrics (at full float precision, via
``float.hex``) and the canonical event trace: for every timestamp, the
multiset of executed entry labels.  A scenario whose *metrics* are
identical under every order does not depend on the FIFO tie-break
accident for its results; flagged races are then **BENIGN** (the
outputs commute).  Metric divergence makes the flagged races
**CONFIRMED** — the published figure depends on an ordering the model
never pinned down.  Trace divergence with converged metrics is reported
as informational detail: the run took a different path through the
same-timestamp groups but the outputs provably commute.

Scenarios are deliberately *small* versions of the paper figures: the
same code paths (same builders, same protocol stacks, same apps), sized
to run in seconds.  ``python -m repro.analysis --race-check all`` drives
the full set.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.race import RaceFinding, detected

#: scenario name -> builder returning {metric: float|int}.
_SCENARIOS: Dict[str, Callable[[], Dict[str, float]]] = {}


def scenario(name: str):
    """Register a scenario builder under ``name``."""

    def deco(fn: Callable[[], Dict[str, float]]):
        _SCENARIOS[name] = fn
        return fn

    return deco


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


# --------------------------------------------------------------------------
# Figure scenarios.  Each reuses the exact benchmark code paths behind the
# paper figures, shrunk to a few round trips / messages.
# --------------------------------------------------------------------------

@scenario("fig3")
def _fig3() -> Dict[str, float]:
    from repro.bench.micro import raw_rtt
    from repro.bench.uam import uam_single_cell_rtt, uam_xfer_rtt

    return {
        "raw_rtt_32": raw_rtt(32, n=3).mean_us,
        "raw_rtt_1024": raw_rtt(1024, n=2).mean_us,
        "uam_rtt_32": uam_single_cell_rtt(32, n=2).mean_us,
        "uam_xfer_256": uam_xfer_rtt(256, n=2).mean_us,
    }


@scenario("fig4")
def _fig4() -> Dict[str, float]:
    from repro.bench.micro import raw_bandwidth

    small = raw_bandwidth(128, n=60)
    large = raw_bandwidth(1024, n=40)
    return {
        "bw_128": small.bytes_per_second,
        "bw_128_losses": small.losses,
        "bw_1024": large.bytes_per_second,
        "bw_1024_losses": large.losses,
    }


@scenario("fig5")
def _fig5() -> Dict[str, float]:
    from repro.splitc.apps.sample_sort import sample_sort
    from repro.splitc.harness import run_on_machine
    from repro.splitc.machines import ATM_CLUSTER

    result = run_on_machine(
        ATM_CLUSTER, sample_sort, nprocs=4, label="sample-sort",
        n_per_proc=128, seed=11,
    )
    return {
        "total_us": result.total_us,
        "comm_us": result.comm_us,
        "verified": int(result.verified),
    }


@scenario("fig6")
def _fig6() -> Dict[str, float]:
    from repro.bench.ip import udp_rtt

    return {
        "udp_rtt_unet": udp_rtt(64, kind="unet", n=2).mean_us,
        "udp_rtt_kernel": udp_rtt(64, kind="kernel-atm", n=2).mean_us,
    }


@scenario("fig7")
def _fig7() -> Dict[str, float]:
    from repro.bench.ip import udp_bandwidth

    unet = udp_bandwidth(2048, kind="unet", n=50)
    kernel = udp_bandwidth(2048, kind="kernel-atm", n=50)
    return {
        "unet_recv_rate": unet.recv_rate,
        "unet_drops": unet.drops,
        "kernel_recv_rate": kernel.recv_rate,
        "kernel_drops": kernel.drops,
    }


@scenario("fig8")
def _fig8() -> Dict[str, float]:
    from repro.bench.ip import tcp_bandwidth

    unet = tcp_bandwidth(4096, kind="unet", window=8192, total_bytes=120_000)
    kernel = tcp_bandwidth(
        4096, kind="kernel-atm", window=32768, total_bytes=120_000
    )
    return {
        "unet_bps": unet.bytes_per_second,
        "kernel_bps": kernel.bytes_per_second,
    }


@scenario("fig9")
def _fig9() -> Dict[str, float]:
    from repro.bench.ip import tcp_rtt, udp_rtt

    return {
        "udp_rtt_eth": udp_rtt(64, kind="kernel-eth", n=2).mean_us,
        "tcp_rtt_unet": tcp_rtt(64, kind="unet", n=2).mean_us,
    }


@scenario("sample_sort")
def _sample_sort() -> Dict[str, float]:
    """One Split-C app end-to-end over real UAM on the simulated cluster."""
    from repro.splitc.apps.sample_sort import sample_sort
    from repro.splitc.harness import run_on_unet_cluster

    result = run_on_unet_cluster(
        sample_sort, nprocs=4, label="sample-sort", n_per_proc=64, seed=11
    )
    return {
        "total_us": result.total_us,
        "comm_us": result.comm_us,
        "verified": int(result.verified),
    }


# --------------------------------------------------------------------------
# Canonicalization and diffing
# --------------------------------------------------------------------------

def _canonical_metrics(metrics: Dict[str, float]) -> Dict[str, str]:
    out = {}
    for key in sorted(metrics):
        value = metrics[key]
        out[key] = value.hex() if isinstance(value, float) else repr(value)
    return out


def _canonical_trace(
    trace: Sequence[Tuple[float, str]]
) -> List[Tuple[str, Tuple[Tuple[str, int], ...]]]:
    """Collapse an execution trace into ordered timestamp groups.

    Each group is ``(time.hex(), sorted multiset of labels)``: the
    *content* of a tie group matters, the FIFO order inside it does not
    — reordering within a timestamp is exactly the freedom the engine
    never promised away."""
    groups: List[Tuple[str, Tuple[Tuple[str, int], ...]]] = []
    current_when: Optional[float] = None
    counts: Dict[str, int] = {}
    for when, label in trace:
        if when != current_when:
            if current_when is not None:
                groups.append(
                    (current_when.hex(), tuple(sorted(counts.items())))
                )
            current_when = when
            counts = {}
        counts[label] = counts.get(label, 0) + 1
    if current_when is not None:
        groups.append((current_when.hex(), tuple(sorted(counts.items()))))
    return groups


@dataclass
class PerturbRun:
    """One execution of a scenario under one tie-break order."""

    tie: str
    seed: Optional[int]
    metrics: Dict[str, str]
    trace_groups: List[Tuple[str, Tuple[Tuple[str, int], ...]]]
    races: List[RaceFinding]
    entries: int

    @property
    def order(self) -> str:
        return self.tie if self.seed is None else f"{self.tie}:{self.seed}"


@dataclass
class OrderDiff:
    """How one perturbed run differs from the FIFO baseline."""

    order: str
    metric_diffs: List[str]  # "name: baseline -> perturbed"
    trace_diff: Optional[str]  # first diverging group, or None

    @property
    def metrics_diverged(self) -> bool:
        return bool(self.metric_diffs)

    @property
    def trace_reordered(self) -> bool:
        return self.trace_diff is not None


@dataclass
class ScenarioVerdict:
    """The harness verdict for one scenario.

    CONFIRMED is driven by *metric* divergence only: a perturbed order
    producing different final numbers proves the figure depends on the
    tie-break.  A reordered trace with identical metrics means the
    same-timestamp events took a different path but commuted, which is
    the definition of benign."""

    scenario: str
    baseline: PerturbRun
    runs: List[PerturbRun]
    diffs: List[OrderDiff]
    confirmed: List[RaceFinding] = field(default_factory=list)
    benign: List[RaceFinding] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return any(diff.metrics_diverged for diff in self.diffs)

    @property
    def trace_reordered(self) -> bool:
        return any(diff.trace_reordered for diff in self.diffs)

    @property
    def status(self) -> str:
        if self.diverged:
            return "CONFIRMED" if self.confirmed else "DIVERGED"
        return "BENIGN" if self.benign else "CLEAN"

    def summary(self) -> str:
        orders = ", ".join(run.order for run in self.runs)
        note = (
            " (trace reordered, metrics identical)"
            if self.trace_reordered and not self.diverged
            else ""
        )
        return (
            f"race-check [{self.scenario}] {self.status}{note}: "
            f"{len(self.confirmed)} confirmed / {len(self.benign)} benign "
            f"race(s); {self.baseline.entries} heap entries; orders tried: "
            f"fifo, {orders}"
        )

    def format(self) -> str:
        lines = [self.summary()]
        for diff in self.diffs:
            if not (diff.metrics_diverged or diff.trace_reordered):
                continue
            verb = "diverges" if diff.metrics_diverged else "reorders"
            lines.append(f"  order {diff.order} {verb} vs fifo:")
            for metric_diff in diff.metric_diffs:
                lines.append(f"    metric {metric_diff}")
            if diff.trace_diff:
                lines.append(f"    trace  {diff.trace_diff}")
        bucket = (
            ("CONFIRMED", self.confirmed) if self.confirmed
            else ("benign", self.benign)
        )
        label, findings = bucket
        for finding in findings[:10]:
            lines.append("")
            lines.append(f"[{label}] {finding.format()}")
        if len(findings) > 10:
            lines.append(f"... and {len(findings) - 10} more {label} race(s)")
        return "\n".join(lines)


def run_scenario(
    name: str, tie: str = "fifo", seed: Optional[int] = None
) -> PerturbRun:
    """One monitored execution of ``name`` under the given tie order."""
    builder = _SCENARIOS.get(name)
    if builder is None:
        raise KeyError(
            f"unknown scenario {name!r} (known: {', '.join(scenario_names())})"
        )
    with detected(tie=tie, seed=seed) as tracker:
        metrics = builder()
        report = tracker.report()
    return PerturbRun(
        tie=tie,
        seed=seed,
        metrics=_canonical_metrics(metrics),
        trace_groups=_canonical_trace(tracker.trace),
        races=report.findings,
        entries=report.entries,
    )


def _child_hash_seed() -> str:
    """A ``PYTHONHASHSEED`` that differs from this interpreter's."""
    return "4243" if os.environ.get("PYTHONHASHSEED") == "4242" else "4242"


def run_in_child(name: str, hash_seed: str) -> PerturbRun:
    """The fifo run of ``name`` in a child interpreter started under
    ``PYTHONHASHSEED=hash_seed``."""
    import repro

    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis.perturb", "--emit", name],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"race-check child for {name!r} (PYTHONHASHSEED={hash_seed}) "
            f"failed:\n{result.stderr}"
        )
    emitted = json.loads(result.stdout.splitlines()[-1])
    return PerturbRun(
        tie="hashseed",
        seed=int(hash_seed),
        metrics=emitted["metrics"],
        trace_groups=[
            (when, tuple(map(tuple, counts)))
            for when, counts in emitted["trace_groups"]
        ],
        races=[],
        entries=emitted["entries"],
    )


def _diff_runs(baseline: PerturbRun, other: PerturbRun) -> OrderDiff:
    metric_diffs = []
    for key in sorted(set(baseline.metrics) | set(other.metrics)):
        a, b = baseline.metrics.get(key), other.metrics.get(key)
        if a != b:
            metric_diffs.append(f"{key}: {a} -> {b}")
    trace_diff = None
    a_groups, b_groups = baseline.trace_groups, other.trace_groups
    for i in range(max(len(a_groups), len(b_groups))):
        a = a_groups[i] if i < len(a_groups) else None
        b = b_groups[i] if i < len(b_groups) else None
        if a != b:
            trace_diff = (
                f"first divergence at group {i}: "
                f"fifo={_show_group(a)} vs {other.order}={_show_group(b)}"
            )
            break
    return OrderDiff(
        order=other.order, metric_diffs=metric_diffs, trace_diff=trace_diff
    )


def _show_group(group) -> str:
    if group is None:
        return "<trace ended>"
    when_hex, counts = group
    t = float.fromhex(when_hex)
    inner = ", ".join(
        f"{label} x{count}" if count > 1 else label for label, count in counts
    )
    return f"t={t:.3f}us [{inner}]"


def race_check(
    name: str,
    random_orders: int = 2,
    base_seed: int = 1,
) -> ScenarioVerdict:
    """Run ``name`` under fifo, lifo, N seeded-random tie orders and a
    different ``PYTHONHASHSEED``, and classify every flagged race as
    CONFIRMED or BENIGN."""
    baseline = run_scenario(name, tie="fifo")
    orders: List[Tuple[str, Optional[int]]] = [("lifo", None)]
    orders += [("random", base_seed + i) for i in range(random_orders)]
    runs = [run_scenario(name, tie=tie, seed=seed) for tie, seed in orders]
    runs.append(run_in_child(name, _child_hash_seed()))
    diffs = [_diff_runs(baseline, run) for run in runs]
    diverged = any(diff.metrics_diverged for diff in diffs)
    verdict = ScenarioVerdict(
        scenario=name, baseline=baseline, runs=runs, diffs=diffs
    )
    if diverged:
        verdict.confirmed = list(baseline.races)
    else:
        verdict.benign = list(baseline.races)
    return verdict


def check_all(
    names: Optional[Sequence[str]] = None,
    random_orders: int = 2,
) -> List[ScenarioVerdict]:
    return [
        race_check(name, random_orders=random_orders)
        for name in (names if names is not None else scenario_names())
    ]


def _main() -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m repro.analysis.perturb")
    parser.add_argument(
        "--emit",
        metavar="NAME",
        required=True,
        help="print the canonical fifo run of scenario NAME as one JSON line",
    )
    args = parser.parse_args()
    run = run_scenario(args.emit)
    print(
        json.dumps(
            {
                "metrics": run.metrics,
                "trace_groups": run.trace_groups,
                "entries": run.entries,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(_main())
