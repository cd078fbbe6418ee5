"""simflow: interprocedural typestate + determinism verification.

Where simlint (:mod:`repro.analysis.rules`) inspects one file at a
time with syntactic rules, simflow builds a whole-repo view:

* a module-level **call graph** (:mod:`.callgraph`) with alias-aware
  resolution of ``self`` methods, imported functions, and
  ``schedule_callback`` / ``schedule_timer`` / ``process`` targets;
* per-function **control-flow graphs** (:mod:`.cfg`) with exception
  edges, so error paths are first-class;
* a **worklist dataflow engine** (:mod:`.dataflow`);

and two clients on top:

* **typestate checking** (:mod:`.typestate` / :mod:`.specs`): the
  alloc→write→post→free protocols of the U-Net API (communication
  segment buffers, receive descriptors, endpoints, timer handles),
  proven on *all* paths — including the exception edges the PR-2
  runtime sanitizers only see when a scenario happens to take them;
* **determinism inference** (:mod:`.purity`): a purity lattice
  (sim-pure < seeded-stochastic < nondeterministic) propagated over
  the call graph, making the wall-clock / unseeded-random /
  unordered-iter rules interprocedural.

Entry point: ``python -m repro.analysis --flow`` (see
:mod:`repro.analysis.cli`), or :func:`analyze_paths` from code.

Escape hatches mirror simlint: ``# simflow: disable=<rule>`` on the
finding line, ``# simflow: disable-file=<rule>`` anywhere in the file,
and the simlint disables for the syntactic determinism rules are
honoured too (a ``# simlint: disable=wall-clock`` site never poisons
the purity lattice).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.analysis.flow.callgraph import Program
from repro.analysis.flow.report import Finding

#: the registered client checks, in report order.
CHECKS = ("typestate", "determinism")


def analyze_program(
    program: Program, checks: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run the selected client checks over an indexed :class:`Program`."""
    from repro.analysis.flow import purity, typestate

    selected = tuple(checks) if checks else CHECKS
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        raise KeyError(
            f"unknown flow check(s) {', '.join(unknown)} "
            f"(known: {', '.join(CHECKS)})"
        )
    findings: List[Finding] = []
    if "typestate" in selected:
        findings.extend(typestate.check_program(program))
    if "determinism" in selected:
        findings.extend(purity.check_program(program))
    findings = [f for f in findings if not program.is_disabled(f)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_paths(
    paths: Iterable[str], checks: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Index every python file under ``paths`` and run the checks."""
    return analyze_program(Program.from_paths(paths), checks)
