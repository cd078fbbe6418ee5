"""``python -m repro.analysis``: run simlint, simflow (``--flow``), or
the determinism harness.

Exit codes: 0 clean, 1 violations/findings (or a determinism mismatch),
2 usage or lint-infrastructure errors (unreadable path, syntax error,
bad baseline file).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.baseline import (
    BaselineError,
    load_baseline,
    suppress,
    write_baseline,
)
from repro.analysis.linter import LintError, lint_paths
from repro.analysis.rules import all_rules, get_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "simlint: repo-specific static analysis for the U-Net "
            "simulator, plus the run-to-run determinism harness"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help=(
            "instead of simlint, run simflow: interprocedural typestate "
            "(segment buffers, receive descriptors, endpoints, timer "
            "handles) and determinism inference over the whole-repo "
            "call graph"
        ),
    )
    parser.add_argument(
        "--flow-checks",
        metavar="CHECKS",
        help=(
            "comma-separated simflow checks to run "
            "(typestate, determinism; default: all)"
        ),
    )
    parser.add_argument(
        "--cost",
        action="store_true",
        help=(
            "instead of simlint, run simcost: hot-path reachability from "
            "the event-callback roots, a weighted static cost model, "
            "and profile-guided ranking against BENCH_perf.json's event mix"
        ),
    )
    parser.add_argument(
        "--cost-checks",
        metavar="CHECKS",
        help=(
            "comma-separated simcost checks that produce findings "
            "(alloc, alloc-loop, str-format, attr-dict, global-loop, "
            "kwargs-call, try-loop, gen-resume; default: the actionable "
            "tier alloc-loop,str-format,kwargs-call,try-loop)"
        ),
    )
    parser.add_argument(
        "--cost-top",
        type=int,
        default=15,
        metavar="N",
        help="hot functions to show in the ranking (default: 15)",
    )
    parser.add_argument(
        "--cost-profile",
        metavar="FILE",
        help=(
            "perf report to weight the ranking with (default: the "
            "nearest BENCH_perf.json; 'none' forces the static-only "
            "fallback)"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "suppress findings recorded in this baseline file (matched by "
            "path/rule/message, count-aware); works for simlint and --flow"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "instead of failing, write the current findings to the "
            "--baseline file and exit 0"
        ),
    )
    parser.add_argument(
        "--determinism",
        action="store_true",
        help=(
            "instead of linting, run the fig3 RTT benchmark twice under "
            "different PYTHONHASHSEEDs and diff the event traces"
        ),
    )
    parser.add_argument(
        "--det-rounds",
        type=int,
        default=2,
        metavar="N",
        help="ping-pong rounds per size for --determinism (default: 2)",
    )
    parser.add_argument(
        "--det-sizes",
        default="0,48",
        metavar="BYTES,...",
        help="message sizes for --determinism (default: 0,48)",
    )
    parser.add_argument(
        "--race-check",
        metavar="SCENARIO",
        help=(
            "instead of linting, run the named scenario (fig3..fig8, "
            "sample_sort, a comma-separated list, or 'all') under fifo, "
            "lifo, and seeded-random same-timestamp tie-break orders and "
            "report CONFIRMED vs BENIGN schedule-order races"
        ),
    )
    parser.add_argument(
        "--race-orders",
        type=int,
        default=2,
        metavar="N",
        help="number of seeded-random orders for --race-check (default: 2)",
    )
    parser.add_argument(
        "--race-verbose",
        action="store_true",
        help="print every flagged race, not just diverging scenarios",
    )
    return parser


def _load_baseline_or_none(args):
    """(baseline Counter or None, exit code or None)."""
    if not args.baseline or args.write_baseline:
        return None, None
    try:
        return load_baseline(args.baseline), None
    except BaselineError as exc:
        print(str(exc), file=sys.stderr)
        return None, 2


def _run_flow(args) -> int:
    from repro.analysis.flow import analyze_paths

    checks = None
    if args.flow_checks:
        checks = [c.strip() for c in args.flow_checks.split(",") if c.strip()]
    try:
        findings = analyze_paths(args.paths, checks)
    except KeyError as exc:
        print(f"simflow: {exc.args[0]}", file=sys.stderr)
        return 2
    except (LintError, SyntaxError) as exc:
        print(f"simflow: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        if not args.baseline:
            print("simflow: --write-baseline requires --baseline FILE", file=sys.stderr)
            return 2
        write_baseline(args.baseline, findings)
        print(f"simflow: wrote {len(findings)} finding(s) to {args.baseline}")
        return 0
    baseline, code = _load_baseline_or_none(args)
    suppressed = 0
    if code is not None:
        return code
    if baseline is not None:
        findings, suppressed = suppress(findings, baseline)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in findings],
                    "count": len(findings),
                    "suppressed": suppressed,
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.format())
        if suppressed:
            print(f"simflow: {suppressed} baselined finding(s) suppressed", file=sys.stderr)
        if findings:
            print(f"simflow: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


def _run_cost(args) -> int:
    from repro.analysis import cost

    checks = None
    if args.cost_checks:
        checks = [c.strip() for c in args.cost_checks.split(",") if c.strip()]
    use_profile = args.cost_profile != "none"
    profile_path = args.cost_profile if use_profile else None
    try:
        report = cost.analyze_paths(
            args.paths,
            checks=checks,
            profile_path=profile_path,
            use_profile=use_profile,
        )
    except KeyError as exc:
        print(f"simcost: {exc.args[0]}", file=sys.stderr)
        return 2
    except (LintError, SyntaxError) as exc:
        print(f"simcost: {exc}", file=sys.stderr)
        return 2
    findings = report.findings
    if args.write_baseline:
        if not args.baseline:
            print("simcost: --write-baseline requires --baseline FILE", file=sys.stderr)
            return 2
        write_baseline(args.baseline, findings)
        print(f"simcost: wrote {len(findings)} finding(s) to {args.baseline}")
        return 0
    baseline, code = _load_baseline_or_none(args)
    if code is not None:
        return code
    suppressed = 0
    if baseline is not None:
        findings, suppressed = suppress(findings, baseline)
    if args.format == "json":
        payload = report.to_dict(top=args.cost_top)
        payload["findings"] = [f.to_dict() for f in findings]
        payload["count"] = len(findings)
        payload["suppressed"] = suppressed
        print(json.dumps(payload, indent=2))
        return 1 if findings else 0
    for finding in findings:
        print(finding.format())
    if findings:
        print()
    source = report.profile_source
    print(
        f"simcost: profile = {source}"
        if source
        else "simcost: no engine profile found, static-only ranking"
    )
    from repro.analysis.cost.rank import render_ranking

    print(render_ranking(report.functions, args.cost_top))
    if suppressed:
        print(f"simcost: {suppressed} baselined finding(s) suppressed", file=sys.stderr)
    if findings:
        print(f"simcost: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


def _run_race_check(args) -> int:
    from repro.analysis.perturb import check_all, scenario_names

    if args.race_check == "all":
        names = scenario_names()
    else:
        names = [n.strip() for n in args.race_check.split(",") if n.strip()]
        unknown = [n for n in names if n not in scenario_names()]
        if unknown:
            print(
                f"race-check: unknown scenario(s) {', '.join(unknown)} "
                f"(known: {', '.join(scenario_names())})",
                file=sys.stderr,
            )
            return 2
    verdicts = check_all(names, random_orders=args.race_orders)
    failed = False
    for verdict in verdicts:
        if verdict.diverged or args.race_verbose:
            print(verdict.format())
        else:
            print(verdict.summary())
        if verdict.diverged:
            failed = True
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name:>18}  {rule.description}")
        return 0

    if args.flow:
        return _run_flow(args)

    if args.cost:
        return _run_cost(args)

    if args.race_check:
        return _run_race_check(args)

    if args.determinism:
        from repro.analysis.determinism import run_ab

        sizes = tuple(int(s) for s in args.det_sizes.split(",") if s)
        report = run_ab(sizes=sizes, rounds=args.det_rounds)
        print(report.summary())
        if not report.identical:
            print(report.diff)
            return 1
        return 0

    try:
        rules = (
            get_rules([name.strip() for name in args.select.split(",") if name.strip()])
            if args.select
            else all_rules()
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    try:
        violations = lint_paths(args.paths, rules)
    except LintError as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        if not args.baseline:
            print("simlint: --write-baseline requires --baseline FILE", file=sys.stderr)
            return 2
        write_baseline(args.baseline, violations)
        print(f"simlint: wrote {len(violations)} violation(s) to {args.baseline}")
        return 0
    baseline, code = _load_baseline_or_none(args)
    if code is not None:
        return code
    suppressed = 0
    if baseline is not None:
        violations, suppressed = suppress(violations, baseline)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "violations": [v.to_dict() for v in violations],
                    "rules": [rule.name for rule in rules],
                    "count": len(violations),
                    "suppressed": suppressed,
                },
                indent=2,
            )
        )
    else:
        for violation in violations:
            print(violation.format())
        if suppressed:
            print(f"simlint: {suppressed} baselined violation(s) suppressed", file=sys.stderr)
        if violations:
            print(f"simlint: {len(violations)} violation(s)", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
