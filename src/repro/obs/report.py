"""Attribution reports: run a benchmark scenario with spans, fold, check.

A report runs the scenario *in this process* (the figure sweeps fork
worker processes, which would strand the spans in the children), wraps
the collection in :func:`repro.obs.collecting`, folds the span tree
into per-layer breakdowns, checks the sum == window invariant, and --
where an analytic budget exists -- compares against it.

The machine-readable result lands next to the figure benchmarks'
outputs at the repository root as ``OBS_<scenario>_attribution.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Optional

from repro import obs
from repro.obs import attrib, budgets
from repro.obs.spans import SpanCollector

REPO_ROOT = Path(__file__).resolve().parents[3]


def run_fig3(
    size: int = 32,
    n: int = 8,
    ni_kind: str = "sba200",
    mhz: float = 60.0,
):
    """Figure 3 raw round trip with spans.

    Returns ``(report_dict, collector)`` -- the collector so the export
    path can render the same run as a timeline.
    """
    from repro.bench import micro
    from repro.core import UNetCluster
    from repro.sim import Simulator

    with obs.collecting() as collector:
        result = micro.raw_rtt(size, n=n, ni_kind=ni_kind, mhz=mhz)

    budget = None
    if ni_kind == "sba200":
        # wire parameters come from an identically-built (unrun) cluster
        probe = UNetCluster.pair(Simulator(), mhz=mhz, ni_kind=ni_kind)
        budget = budgets.sba200_single_cell_budget(
            micro._one_way_wire_us(probe),
            probe.network.switch.switching_latency_us,
        )
        if size > 40:
            budget = None  # multi-cell path: the single-cell budget is wrong

    report = _build_report(
        collector,
        scenario={
            "figure": "fig3",
            "benchmark": "raw_rtt",
            "size": size,
            "n": n,
            "ni": ni_kind,
            "mhz": mhz,
        },
        measured={"rtt_mean_us": result.mean_us, "rtt_min_us": result.min_us},
        budget=budget,
        rtt_samples=result.samples,
    )
    return report, collector


def _percentile_summary(samples) -> Dict[str, float]:
    """p50/p99/p999 of a sample list via :meth:`StatSeries.percentile`
    (exact nearest-rank on the recorded floats, not bucket midpoints)."""
    from repro.sim import StatSeries

    series = StatSeries()
    for value in samples:
        series.add(value)
    return {
        "p50": series.percentile(50.0),
        "p99": series.percentile(99.0),
        "p999": series.percentile(99.9),
    }


def _build_report(
    collector: SpanCollector,
    scenario: Dict[str, object],
    measured: Dict[str, float],
    budget: Optional[Dict[str, float]],
    rtt_samples=None,
) -> Dict[str, object]:
    per_trip = attrib.attribute_roundtrips(collector.spans)
    if not per_trip:
        raise RuntimeError(
            "no measurement root spans recorded -- was the benchmark "
            "instrumented with a 'bench'-layer span per round trip?"
        )
    for att in per_trip:
        att.check_sum()  # the CI-gated invariant
    mean = attrib.merge_mean(per_trip)

    # Tail attribution: the per-roundtrip per-layer contributions give
    # each layer's queueing-delay distribution across trips.
    percentiles: Dict[str, object] = {}
    if rtt_samples:
        percentiles["rtt_us"] = _percentile_summary(rtt_samples)
    layer_tails: Dict[str, Dict[str, float]] = {}
    for layer in sorted(mean.layers):
        layer_tails[layer] = _percentile_summary(
            [att.layers.get(layer, 0.0) for att in per_trip]
        )
    percentiles["layers_us"] = layer_tails

    report: Dict[str, object] = {
        "scenario": scenario,
        "measured": measured,
        "roundtrips": len(per_trip),
        "attribution": {
            "mean_window_us": mean.window_us,
            "layers_us": {k: mean.layers[k] for k in sorted(mean.layers)},
            "fractions": {
                k: mean.fraction(k) for k in sorted(mean.layers)
            },
            "per_roundtrip": [a.to_dict() for a in per_trip],
        },
        "invariant": {
            "sum_equals_window": True,
            "rel_tol": attrib.SUM_REL_TOL,
        },
        "percentiles": percentiles,
        **collector.snapshot(),
        "engine_profile": collector.engine_profile(),
    }
    if budget is not None:
        comparison = budgets.compare(mean.layers, budget)
        report["budget"] = {
            "layers_us": {k: budget[k] for k in sorted(budget)},
            **comparison,
        }
    return report


#: scenario name -> runner; each returns ``(report_dict, collector)``.
SCENARIOS: Dict[str, Callable] = {
    "fig3": run_fig3,
}


def run_scenario(name: str, **kwargs):
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}"
        ) from None
    return runner(**kwargs)


def default_json_path(scenario: str) -> Path:
    return REPO_ROOT / f"OBS_{scenario}_attribution.json"


def write_report(report: Dict[str, object], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")


def format_report(
    report: Dict[str, object], percentiles: bool = False
) -> str:
    """Human-readable per-layer table for the CLI.

    ``percentiles`` appends the tail-latency section (p50/p99/p999 RTT
    plus each layer's queueing-delay tail across round trips).
    """
    lines = []
    scenario = report["scenario"]
    att = report["attribution"]
    lines.append(
        f"{scenario['figure']}: {scenario['benchmark']} "
        f"size={scenario['size']} ni={scenario['ni']} "
        f"({report['roundtrips']} round trips)"
    )
    measured = report["measured"]
    lines.append(
        f"  measured RTT: mean {measured['rtt_mean_us']:.2f} us, "
        f"min {measured['rtt_min_us']:.2f} us"
    )
    budget = report.get("budget")
    budget_layers = budget["layers_us"] if budget else {}
    lines.append(f"  {'layer':<14}{'us':>10}{'share':>9}" +
                 (f"{'budget':>10}{'delta':>9}" if budget else ""))
    layers = att["layers_us"]
    for layer in sorted(layers, key=lambda k: -layers[k]):
        row = (
            f"  {layer:<14}{layers[layer]:>10.3f}"
            f"{att['fractions'][layer]:>8.1%}"
        )
        if budget:
            if layer in budget_layers:
                row += (
                    f"{budget_layers[layer]:>10.3f}"
                    f"{budget['deltas_us'][layer]:>+9.3f}"
                )
            else:
                row += f"{'-':>10}{'-':>9}"
        lines.append(row)
    total = sum(layers.values())
    lines.append(
        f"  {'sum':<14}{total:>10.3f}{'100.0%':>8} "
        f"(window {att['mean_window_us']:.3f} us)"
    )
    if budget:
        verdict = "within" if budget["ok"] else "OUTSIDE"
        lines.append(
            f"  budget check: {verdict} {budget['rel_tol']:.0%} of "
            f"{budget['budget_total_us']:.2f} us "
            f"(tolerance {budget['tolerance_us']:.2f} us/layer)"
        )
    if percentiles:
        pct = report.get("percentiles", {})
        rtt = pct.get("rtt_us")
        if rtt:
            lines.append(
                f"  RTT tails: p50 {rtt['p50']:.3f} us, "
                f"p99 {rtt['p99']:.3f} us, p999 {rtt['p999']:.3f} us"
            )
        tails = pct.get("layers_us", {})
        if tails:
            lines.append(f"  {'layer tail':<14}{'p50':>10}{'p99':>10}{'p999':>10}")
            for layer in sorted(tails, key=lambda k: -tails[k]["p99"]):
                t = tails[layer]
                lines.append(
                    f"  {layer:<14}{t['p50']:>10.3f}{t['p99']:>10.3f}"
                    f"{t['p999']:>10.3f}"
                )
    return "\n".join(lines)
