"""or-default: no ``x or Default()`` fallbacks for injected collaborators.

``self.pool = pool or BufferPool()`` silently replaces a *falsy but
valid* injected object (a shared pool that is empty right now, an empty
cost table) with a fresh private one, so the caller's instance stops
seeing the traffic.  The only correct spelling for optional injection
is an explicit None test::

    self.pool = pool if pool is not None else BufferPool()
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import FileContext, Violation
from repro.analysis.rules import Rule, register


def _constructor_name(node: ast.expr) -> str:
    """The called name when ``node`` looks like ``Ctor(...)``, else ""."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    name = ""
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    return name if name[:1].isupper() else ""


@register
class OrDefaultRule(Rule):
    name = "or-default"
    description = (
        "no `x or Default()` for injected collaborators; falsy-but-valid "
        "objects get silently replaced -- use `x if x is not None else Default()`"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)):
                continue
            ctor = _constructor_name(node.values[-1])
            if not ctor:
                continue
            left = node.values[0]
            left_src = (
                ast.unparse(left) if isinstance(left, (ast.Name, ast.Attribute))
                else "x"
            )
            yield self.violation(
                ctx,
                node,
                f"`{left_src} or {ctor}(...)` drops a falsy-but-valid injected "
                f"object; use "
                f"`{left_src} if {left_src} is not None else {ctor}(...)`",
            )
