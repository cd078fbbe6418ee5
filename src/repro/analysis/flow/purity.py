"""Determinism inference: a purity lattice over the call graph.

Every function is classified on the three-point lattice

    sim-pure  <  seeded-stochastic  <  nondeterministic

* **direct evidence** for *nondeterministic* comes from the existing
  syntactic simlint rules — wall-clock, unseeded-random and
  unordered-iter — per file, honouring their ``# simlint: disable``
  comments (each rule's result is computed once per file and shared
  with the report).  Reusing the rules (not a re-implementation)
  means the interprocedural pass agrees with the syntactic one by
  construction, and a deliberately disabled benchmark-timing site
  never poisons the lattice.  The rules themselves report these
  sites; this pass only classifies them.
* **direct evidence** for *seeded-stochastic* is a seeded RNG
  construction (``random.Random(seed)``, ``default_rng(seed)``) or a
  draw from an rng-named receiver (``rng`` / ``_rng`` /
  ``random_state`` variables and attributes).
* the level then propagates caller-ward over the program call graph to
  a fixpoint: you are at least as nondeterministic as anything you
  call.

The one finding, ``flow-nondet-call``, is a call site inside an
event-callback-reachable function whose callee is (transitively)
nondeterministic while the caller itself has no direct evidence on
that line: the interprocedural case the syntactic rules cannot see.
The witness walks the call chain down to a concrete evidence site.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import FunctionInfo, ModuleIndex, Program
from repro.analysis.linter import Violation, check_context
from repro.analysis.rules import get_rules
from repro.analysis.rules.unseeded_random import SEED_REQUIRED

SIM_PURE = "sim-pure"
SEEDED = "seeded-stochastic"
NONDET = "nondeterministic"

_ORDER = {SIM_PURE: 0, SEEDED: 1, NONDET: 2}

#: receiver names treated as seeded RNG instances.
RNG_NAMES = frozenset({"rng", "_rng", "random_state", "rand", "_rand"})

#: rules supplying direct nondeterminism evidence.
EVIDENCE_RULES = ("wall-clock", "unseeded-random", "unordered-iter")

#: (line, col, reason, source rule name)
Evidence = Tuple[int, int, str, str]


def _join(a: str, b: str) -> str:
    return a if _ORDER[a] >= _ORDER[b] else b


def direct_evidence(index: ModuleIndex) -> List[Evidence]:
    """Nondeterminism evidence sites in one file, via the syntactic
    rules, with their disable comments honoured."""
    sites = [
        (violation.line, violation.col, violation.message, violation.rule)
        for violation in check_context(index.ctx, get_rules(EVIDENCE_RULES))
    ]
    sites.sort()
    return sites


def _owner_of(index: ModuleIndex, line: int) -> Optional[FunctionInfo]:
    """The innermost function whose span contains ``line``."""
    best: Optional[FunctionInfo] = None
    best_span = None
    for fn in index.functions.values():
        start = getattr(fn.node, "lineno", None)
        end = getattr(fn.node, "end_lineno", None)
        if start is None or end is None or not (start <= line <= end):
            continue
        span = end - start
        if best_span is None or span < best_span:
            best, best_span = fn, span
    return best


def _seeded_evidence(fn: FunctionInfo) -> List[Evidence]:
    """Seeded-stochastic sites: seeded RNG construction or a draw from
    an rng-named receiver."""
    from repro.analysis.flow.callgraph import own_nodes

    sites: List[Evidence] = []
    for node in own_nodes(fn.node):
        if not isinstance(node, ast.Call):
            continue
        qual = fn.ctx.qualified_name(node.func)
        if qual in SEED_REQUIRED and (node.args or node.keywords):
            sites.append(
                (
                    node.lineno,
                    node.col_offset + 1,
                    f"seeded RNG constructed via {qual}(...)",
                    "seeded-rng",
                )
            )
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            base_name = ""
            if isinstance(base, ast.Name):
                base_name = base.id
            elif isinstance(base, ast.Attribute) and isinstance(
                base.value, ast.Name
            ) and base.value.id == "self":
                base_name = base.attr
            if base_name in RNG_NAMES:
                sites.append(
                    (
                        node.lineno,
                        node.col_offset + 1,
                        f"draw from seeded RNG '{base_name}'",
                        "seeded-rng",
                    )
                )
    return sites


class Classification:
    """The computed lattice: levels plus the evidence that caused them."""

    def __init__(self) -> None:
        #: qualname (or "<module>:path") -> level
        self.levels: Dict[str, str] = {}
        #: qualname -> direct evidence sites
        self.evidence: Dict[str, List[Evidence]] = {}
        #: qualname -> callee qualname blamed for an inherited level
        self.blame: Dict[str, Tuple[str, int]] = {}

    def level(self, qualname: str) -> str:
        return self.levels.get(qualname, SIM_PURE)


def classify(program: Program) -> Classification:
    result = Classification()

    for index in program.indexes:
        for line, col, reason, rule in direct_evidence(index):
            owner = _owner_of(index, line)
            if owner is None:
                continue  # module scope: no function to classify
            result.evidence.setdefault(owner.qualname, []).append(
                (line, col, reason, rule)
            )
            result.levels[owner.qualname] = NONDET
        for fn in index.functions.values():
            if isinstance(fn.node, ast.Lambda):
                continue
            for site in _seeded_evidence(fn):
                result.evidence.setdefault(fn.qualname, []).append(site)
                result.levels[fn.qualname] = _join(
                    result.level(fn.qualname), SEEDED
                )

    # propagate caller-ward to fixpoint
    callers: Dict[str, List[Tuple[str, int]]] = {}
    for site in program.edges:
        callers.setdefault(site.callee, []).append((site.caller, site.line))
    work = [q for q in result.levels if result.levels[q] != SIM_PURE]
    while work:
        callee = work.pop()
        level = result.level(callee)
        for caller, line in callers.get(callee, ()):
            if _ORDER[result.level(caller)] < _ORDER[level]:
                result.levels[caller] = level
                result.blame.setdefault(caller, (callee, line))
                work.append(caller)
    return result


def _evidence_chain(
    classification: Classification, qualname: str, limit: int = 8
) -> Tuple[str, ...]:
    """Walk blame links from ``qualname`` down to a direct site."""
    steps: List[str] = []
    current = qualname
    seen: Set[str] = set()
    while current not in classification.evidence and len(steps) < limit:
        if current in seen:
            break
        seen.add(current)
        nxt = classification.blame.get(current)
        if nxt is None:
            break
        callee, line = nxt
        steps.append(f"{current} calls {callee} at line {line}")
        current = callee
    for line, _col, reason, rule in classification.evidence.get(current, ())[:1]:
        steps.append(f"{current} at line {line}: {reason} [{rule}]")
    return tuple(steps)


def check_program(program: Program) -> List[Violation]:
    classification = classify(program)
    findings: List[Violation] = []

    # interprocedural: callback-reachable callers of nondet callees
    reachable = program.reachable_from_callbacks()
    reported: Set[Tuple[str, str, int]] = set()
    for site in program.edges:
        if site.caller not in reachable:
            continue
        if classification.level(site.callee) != NONDET:
            continue
        caller_fn = program.functions.get(site.caller)
        callee_fn = program.functions.get(site.callee)
        if caller_fn is None or callee_fn is None:
            continue
        # skip when the caller's direct evidence IS this very line
        # (the syntactic rule already reports it)
        direct_here = any(
            line == site.line
            for line, _c, _r, _ru in classification.evidence.get(
                site.caller, ()
            )
        )
        if direct_here:
            continue
        key = (site.caller, site.callee, site.line)
        if key in reported:
            continue
        reported.add(key)
        chain = _evidence_chain(classification, site.callee)
        findings.append(
            Violation(
                path=caller_fn.ctx.path,
                line=site.line,
                col=site.col,
                rule="flow-nondet-call",
                message=(
                    f"call to nondeterministic {callee_fn.name}() from "
                    f"event-callback-reachable {caller_fn.name}(): host "
                    "state leaks into simulated time"
                ),
                function=site.caller,
                witness=(f"{site.caller} calls {site.callee}",) + chain,
            )
        )
    return findings
