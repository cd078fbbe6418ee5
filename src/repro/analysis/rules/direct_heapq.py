"""direct-heapq: the scheduler owns the heap.

The event core (``repro.sim.engine``) keeps strict invariants on its
schedule: a unique monotone sequence number per entry for FIFO
tie-break, and a front slot that every pop compares with the heap top.
Model code that imports :mod:`heapq` and maintains its own priority
queue next to the scheduler tends to re-invent those invariants badly —
unordered ties, tombstone cancellation, wall-order dependence.  Outside
``repro.sim``, schedule through the simulator (``schedule_callback`` /
events) or use the ordered containers in ``repro.sim.resources``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import FileContext, Violation
from repro.analysis.rules import Rule, register

#: Packages allowed to touch heapq directly: the event core itself and
#: its ordered-resource containers.
ALLOWED_PREFIX = "repro.sim"


@register
class DirectHeapqRule(Rule):
    name = "direct-heapq"
    description = (
        "no direct heapq use outside repro.sim; schedule through the "
        "simulator or use repro.sim.resources containers"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        module = ctx.module_name
        if module == ALLOWED_PREFIX or module.startswith(ALLOWED_PREFIX + "."):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "heapq" or name.startswith("heapq.") for name in names):
                yield self.violation(
                    ctx,
                    node,
                    "direct heapq import outside repro.sim; the scheduler "
                    "owns the heap — use schedule_callback, events or "
                    "repro.sim.resources",
                )
