"""simflow: interprocedural typestate verification, and the one
static-analysis pass that runs it alongside simlint.

Where a simlint rule (:mod:`repro.analysis.rules`) inspects one file
at a time, simflow builds a whole-repo view:

* a module-level **index** (:mod:`.callgraph`) with alias-aware
  resolution of ``self`` methods, imported functions, and callback
  references;
* per-function **control-flow graphs** (:mod:`.cfg`) with exception
  edges, so error paths are first-class;
* a **worklist dataflow engine** (:mod:`.dataflow`);

and one client on top, **typestate checking** (:mod:`.typestate` /
:mod:`.specs`): the alloc→write→post→free protocols of the U-Net API
(communication segment buffers, receive descriptors, endpoints),
proven on *all* paths — including the exception edges the
runtime sanitizers only see when a scenario happens to take them.

:func:`analyze_paths` is the whole pass behind ``python -m
repro.analysis``: every file is parsed once into the :class:`Program`,
each rule runs on each file's context, then typestate runs over the
program.  Rules and typestate share one :class:`Violation` record and
the ``# simlint: disable[-file]=<name>`` comments.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.analysis.flow.callgraph import Program
from repro.analysis.linter import Violation, check_context
from repro.analysis.rules import all_rules, get_rules

#: the flow checks, with their descriptions.
CHECKS = {
    "typestate": (
        "U-Net API protocols (segment buffers, receive descriptors, "
        "endpoints) hold on every path, exception edges included"
    ),
}


def check_names() -> List[str]:
    """Every selectable name: the simlint rules, then the flow checks."""
    return [rule.name for rule in all_rules()] + list(CHECKS)


def _selected(names: Optional[Sequence[str]]) -> List[str]:
    """The checks ``names`` selects (default: all); unknown names raise
    KeyError."""
    known = check_names()
    selected = list(names) if names else known
    unknown = [name for name in selected if name not in known]
    if unknown:
        raise KeyError(
            f"unknown check(s) {', '.join(unknown)} (known: {', '.join(known)})"
        )
    return selected


def analyze_program(
    program: Program, names: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Run the selected rules and flow checks (default: all) over an
    indexed :class:`Program`; unknown names raise KeyError."""
    from repro.analysis.flow import typestate

    selected = _selected(names)
    rules = get_rules([name for name in selected if name not in CHECKS])
    found: List[Violation] = []
    for index in program.indexes:
        found.extend(check_context(index.ctx, rules))
    if "typestate" in selected:
        contexts = {index.ctx.path: index.ctx for index in program.indexes}
        found.extend(
            f
            for f in typestate.check_program(program)
            if not contexts[f.path].is_disabled(f.rule, f.line)
        )
    found.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return found


def analyze_paths(
    paths: Iterable[str], names: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Index every python file under ``paths`` and run the pass.
    Unknown names raise KeyError before any file is parsed."""
    selected = _selected(names)
    return analyze_program(Program.from_paths(paths), selected)
