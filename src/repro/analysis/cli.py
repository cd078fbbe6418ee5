"""``python -m repro.analysis``: the one static-analysis pass (every
simlint rule), or the tie-break race check.

Exit codes: 0 clean, 1 violations (or a CONFIRMED race), 2 usage or
infrastructure errors (unknown rule, unreadable path, syntax error).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.linter import LintError


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "repo-specific static analysis for the U-Net simulator "
            "(the simlint rules), plus the tie-break race check"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
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
        help="list the rules and exit",
    )
    parser.add_argument(
        "--race-check",
        metavar="SCENARIO",
        help=(
            "instead of analyzing, run the named scenario (fig3..fig9, "
            "sample_sort, a comma-separated list, or 'all') under fifo, "
            "lifo, seeded-random and PYTHONHASHSEED orders and report "
            "CONFIRMED vs BENIGN schedule-order races"
        ),
    )
    parser.add_argument(
        "--race-orders",
        type=_non_negative,
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


def _run_race_check(args) -> int:
    from repro.analysis.perturb import check_all, scenario_names

    known = scenario_names()
    if args.race_check == "all":
        names = known
    else:
        names = [n.strip() for n in args.race_check.split(",") if n.strip()]
    unknown = [n for n in names if n not in known]
    if unknown or not names:
        problem = (
            f"unknown scenario(s) {', '.join(unknown)}" if unknown
            else "no scenario named"
        )
        print(
            f"race-check: {problem} (known: {', '.join(known)})",
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

    if args.race_check:
        return _run_race_check(args)

    from repro.analysis.linter import analyze_paths
    from repro.analysis.rules import all_rules

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name:>21}  {rule.description}")
        return 0

    names = (
        [name.strip() for name in args.select.split(",") if name.strip()]
        if args.select
        else [rule.name for rule in all_rules()]
    )
    try:
        violations = analyze_paths(args.paths, names)
    except KeyError as exc:
        print(f"simlint: {exc.args[0]}", file=sys.stderr)
        return 2
    except LintError as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(
            json.dumps(
                {
                    "violations": [v.to_dict() for v in violations],
                    "checks": names,
                    "count": len(violations),
                },
                indent=2,
            )
        )
    else:
        for violation in violations:
            print(violation.format())
        if violations:
            print(f"simlint: {len(violations)} violation(s)", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
