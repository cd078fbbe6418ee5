"""simcost: profile-guided interprocedural hot-path cost analysis.

Pipeline (one :func:`analyze_program` call):

1. :mod:`.hotpath` -- reachability from the event-callback roots, with
   per-function call depth, blame chain, and scheduling kinds;
2. :mod:`.model` -- every reachable function's AST classified into
   weighted cost classes (cold guards and raise paths excluded);
3. :mod:`.profile` + :mod:`.rank` -- static scores joined against the
   measured event mix in ``BENCH_perf.json`` (static-only fallback
   when no profile exists) and ordered by estimated events/s impact.

Findings (for the CI gate) are emitted only for the *actionable* cost
classes by default -- per-iteration allocation, string formatting,
``**kwargs`` expansion, ``try`` inside loops; pass ``--cost-checks``
to also gate the structural ones (``attr-dict``, ``gen-resume``,
``global-loop``, flat ``alloc``), which are always *scored* into the
ranking regardless.  Escape hatches: ``# simcost: disable=<rule>`` on
the finding line, ``# simcost: disable-file=<rule>`` anywhere in the
file, and the shared baseline machinery (``COST_baseline.json``).

Entry point: ``python -m repro.analysis --cost`` (see
:mod:`repro.analysis.cli`), or :func:`analyze_paths` from code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.cost import hotpath as _hotpath
from repro.analysis.cost import profile as _profile
from repro.analysis.cost import rank as _rank
from repro.analysis.cost.model import CostItem, classify_function
from repro.analysis.cost.profile import EngineProfile
from repro.analysis.cost.rank import FunctionCost
from repro.analysis.flow.callgraph import Program
from repro.analysis.flow.report import Finding

#: gateable cost checks; "alloc-loop" is the per-iteration subset of
#: "alloc" (an allocation whose loop depth is >= 1).
CHECKS = (
    "alloc",
    "alloc-loop",
    "str-format",
    "attr-dict",
    "global-loop",
    "kwargs-call",
    "try-loop",
    "gen-resume",
)

#: checks that produce findings when --cost-checks is not given: the
#: ones a targeted fix removes without restructuring (and that
#: therefore gate CI); the rest rank but do not fail the build.
DEFAULT_CHECKS = ("alloc-loop", "str-format", "kwargs-call", "try-loop")

_COST_DISABLE_RE = re.compile(
    r"#\s*simcost:\s*(disable-file|disable)"
    r"\s*(?:=\s*([\w-]+(?:\s*,\s*[\w-]+)*))?"
)


@dataclass
class CostReport:
    """Everything one simcost run produces."""

    findings: List[Finding] = field(default_factory=list)
    functions: List[FunctionCost] = field(default_factory=list)  # ranked
    profile: Optional[EngineProfile] = None

    @property
    def profile_source(self) -> Optional[str]:
        return self.profile.source if self.profile is not None else None

    def to_dict(self, top: int = 20) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "count": len(self.findings),
            "profile": self.profile_source or "static-only",
            "functions": [c.to_dict() for c in self.functions[:top]],
            "modules": {
                k: round(v, 3)
                for k, v in _rank.module_rollup(self.functions).items()
            },
        }


class _DisableScan:
    """Per-file ``# simcost: disable`` comment index."""

    def __init__(self, lines: Sequence[str]):
        self.file_rules: Set[str] = set()
        self.line_rules: Dict[int, Set[str]] = {}
        for lineno, text in enumerate(lines, start=1):
            if "simcost" not in text:
                continue
            match = _COST_DISABLE_RE.search(text)
            if not match:
                continue
            kind, names = match.group(1), match.group(2)
            rules = (
                {n.strip() for n in names.split(",") if n.strip()}
                if names
                else {"*"}
            )
            if kind == "disable-file":
                self.file_rules |= rules
            else:
                self.line_rules.setdefault(lineno, set()).update(rules)

    def is_disabled(self, rule: str, line: int) -> bool:
        if "*" in self.file_rules or rule in self.file_rules:
            return True
        on_line = self.line_rules.get(line, ())
        return "*" in on_line or rule in on_line


def _item_check(item: CostItem) -> Sequence[str]:
    """The check name(s) an item gates under."""
    if item.cls == "alloc":
        return ("alloc", "alloc-loop") if item.loop_depth >= 1 else ("alloc",)
    return (item.cls,)


def _finding(cost: FunctionCost, item: CostItem) -> Finding:
    count = f", x{item.count}" if item.count > 1 else ""
    return Finding(
        path=cost.path,
        line=item.line,
        col=item.col,
        rule=f"cost-{item.cls}",
        message=(
            f"{item.detail} on the event hot path "
            f"(loop depth {item.loop_depth}{count}, static weight {item.weight:g})"
        ),
        function=cost.fn.qualname,
        witness=cost.chain + (f"site classified {item.cls}: {item.detail}",),
    )


def analyze_program(
    program: Program,
    checks: Optional[Sequence[str]] = None,
    profile: Optional[EngineProfile] = None,
    profile_path: Optional[str] = None,
    use_profile: bool = True,
) -> CostReport:
    """Run the full simcost pipeline over an indexed :class:`Program`.

    ``checks`` selects which cost classes produce *findings* (default
    :data:`DEFAULT_CHECKS`); scoring and ranking always cover every
    class.  ``profile`` injects a parsed profile directly (tests);
    otherwise one is loaded from ``profile_path`` or the nearest
    ``BENCH_perf.json``, and ``use_profile=False`` forces the
    documented static-only fallback.
    """
    selected = tuple(checks) if checks else DEFAULT_CHECKS
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        raise KeyError(
            f"unknown cost check(s) {', '.join(unknown)} "
            f"(known: {', '.join(CHECKS)})"
        )
    hot = _hotpath.compute(program)
    costs: List[FunctionCost] = []
    for qual in sorted(hot.depth):
        fn = program.functions.get(qual)
        if fn is None:
            continue
        items = classify_function(fn, program)
        costs.append(
            FunctionCost(
                fn=fn,
                items=items,
                call_depth=hot.depth[qual],
                kinds=set(hot.kinds.get(qual, ())),
                chain=tuple(hot.chain(program, qual)),
            )
        )
    if profile is None and use_profile:
        profile = _profile.load(profile_path)
    if not use_profile:
        profile = None
    _rank.rank(costs, profile)

    scans: Dict[str, _DisableScan] = {}
    findings: List[Finding] = []
    for cost in costs:
        scan = scans.get(cost.path)
        if scan is None:
            scan = scans[cost.path] = _DisableScan(cost.fn.ctx.lines)
        for item in cost.items:
            if not any(c in selected for c in _item_check(item)):
                continue
            rule = f"cost-{item.cls}"
            if scan.is_disabled(rule, item.line):
                continue
            findings.append(_finding(cost, item))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return CostReport(findings=findings, functions=costs, profile=profile)


def analyze_paths(
    paths: Iterable[str],
    checks: Optional[Sequence[str]] = None,
    profile: Optional[EngineProfile] = None,
    profile_path: Optional[str] = None,
    use_profile: bool = True,
) -> CostReport:
    """Index every python file under ``paths`` and run the pipeline."""
    return analyze_program(
        Program.from_paths(paths),
        checks=checks,
        profile=profile,
        profile_path=profile_path,
        use_profile=use_profile,
    )
