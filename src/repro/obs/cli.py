"""``python -m repro.obs`` -- attribution reports, timeline export, diff.

Subcommands::

    report fig3 [--size N] [--n N] [--ni KIND] [--json PATH]
                [--profile-wall] [--percentiles]
    export fig3 [--size N] [--n N] [--ni KIND] [-o trace.json]
    diff OLD.json NEW.json

``report`` exits 1 when the attribution-sum invariant fails and 2 when
the measured breakdown falls outside the analytic budget's tolerance --
both are CI gates.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs import export, report


def _add_scenario_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("scenario", choices=sorted(report.SCENARIOS))
    sub.add_argument("--size", type=int, default=32, help="message bytes")
    sub.add_argument("--n", type=int, default=8, help="round trips")
    sub.add_argument(
        "--ni", default="sba200", choices=["sba200", "sba100", "fore"]
    )
    sub.add_argument("--mhz", type=float, default=60.0)


def _scenario_kwargs(args) -> dict:
    return dict(size=args.size, n=args.n, ni_kind=args.ni, mhz=args.mhz)


def cmd_report(args) -> int:
    try:
        doc, _collector = report.run_scenario(
            args.scenario, profile_wall=args.profile_wall,
            **_scenario_kwargs(args),
        )
    except ValueError as exc:
        # the check_sum() invariant raises ValueError
        print(f"attribution invariant FAILED: {exc}", file=sys.stderr)
        return 1
    print(report.format_report(doc, percentiles=args.percentiles))
    path = (
        Path(args.json)
        if args.json
        else report.default_json_path(args.scenario)
    )
    report.write_report(doc, path)
    print(f"wrote {path}")
    budget = doc.get("budget")
    if budget is not None and not budget["ok"]:
        print("budget check FAILED (see deltas above)", file=sys.stderr)
        return 2
    return 0


def cmd_export(args) -> int:
    doc, collector = report.run_scenario(
        args.scenario, profile_wall=args.profile_wall,
        **_scenario_kwargs(args),
    )
    out = args.output or f"OBS_{args.scenario}_trace.json"
    n_events = export.write_trace(collector, out)
    print(
        f"wrote {out}: {n_events} trace events "
        f"({len(collector.spans)} spans, {len(collector.samples)} samples) "
        f"-- load in ui.perfetto.dev or chrome://tracing"
    )
    return 0


def cmd_diff(args) -> int:
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    old_layers = old["attribution"]["layers_us"]
    new_layers = new["attribution"]["layers_us"]
    print(f"{'layer':<14}{'old us':>10}{'new us':>10}{'delta':>10}")
    drift = 0.0
    for layer in sorted(set(old_layers) | set(new_layers)):
        a = old_layers.get(layer, 0.0)
        b = new_layers.get(layer, 0.0)
        print(f"{layer:<14}{a:>10.3f}{b:>10.3f}{b - a:>+10.3f}")
        drift += abs(b - a)
    old_w = old["attribution"]["mean_window_us"]
    new_w = new["attribution"]["mean_window_us"]
    print(
        f"{'window':<14}{old_w:>10.3f}{new_w:>10.3f}{new_w - old_w:>+10.3f}"
    )
    if args.fail_over is not None and drift > args.fail_over:
        print(
            f"total per-layer drift {drift:.3f} us exceeds "
            f"--fail-over {args.fail_over}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs")
    subs = parser.add_subparsers(dest="command", required=True)

    p_report = subs.add_parser(
        "report", help="per-layer latency attribution vs the paper budget"
    )
    _add_scenario_args(p_report)
    p_report.add_argument(
        "--json", default=None, help="attribution JSON output path"
    )
    p_report.add_argument("--profile-wall", action="store_true")
    p_report.add_argument(
        "--percentiles", action="store_true",
        help="print p50/p99/p999 RTT and per-layer tail attribution",
    )
    p_report.set_defaults(fn=cmd_report)

    p_export = subs.add_parser(
        "export", help="Chrome trace_event / Perfetto timeline JSON"
    )
    _add_scenario_args(p_export)
    p_export.add_argument("-o", "--output", default=None)
    p_export.add_argument("--profile-wall", action="store_true")
    p_export.set_defaults(fn=cmd_export)

    p_diff = subs.add_parser(
        "diff", help="compare two attribution JSON reports"
    )
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    p_diff.add_argument(
        "--fail-over", type=float, default=None,
        help="exit 1 when total absolute per-layer drift exceeds this (us)",
    )
    p_diff.set_defaults(fn=cmd_diff)

    args = parser.parse_args(argv)
    return args.fn(args)
