"""data-path-print: no ``print()`` in data-path code.

Structured observability has one front door, the ``repro.obs``
collector (spans, counters, gauges, histograms).  ``print()`` in a hot
path is invisible to every analysis pass and ruins benchmark
wall-clock.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import FileContext, Violation
from repro.analysis.rules import Rule, register

#: Module prefixes considered data-path: simulated-time code where any
#: output must flow through repro.obs.  Bench harnesses, analysis
#: tooling, and the obs package itself legitimately print reports.
HOT_PREFIXES = (
    "repro.sim",
    "repro.core",
    "repro.atm",
    "repro.am",
    "repro.host",
    "repro.ip",
    "repro.splitc",
)


def _is_hot_path(module_name: str) -> bool:
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in HOT_PREFIXES
    )


@register
class DataPathPrintRule(Rule):
    name = "data-path-print"
    description = "no print() in data-path modules; use a repro.obs counter"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not _is_hot_path(ctx.module_name):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.violation(
                    ctx,
                    node,
                    "print() in data-path code is invisible to the "
                    "analysis layer; record through a repro.obs counter",
                )
