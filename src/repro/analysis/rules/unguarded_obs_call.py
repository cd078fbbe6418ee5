"""unguarded-obs-call: observability calls must pay zero when off.

The span collector is zero-overhead-when-off only under the
module-attr guard discipline::

    _o = obs.active            # one attribute read
    if _o is not None:
        _o.count(...)          # hot-path work only when armed

Calling through the module attribute directly -- ``obs.active.count(...)``
-- breaks that contract twice over: it raises ``AttributeError`` the
moment observability is off (``active`` is ``None``), and even when
armed it re-reads the module global on every call instead of once per
function.  This rule flags any call whose receiver chain resolves to
``repro.obs.active`` inside the data-path modules; report/analysis
layers, which only run with observability armed, are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import FileContext, Violation
from repro.analysis.rules import Rule, register
from repro.analysis.rules.data_path_print import _is_hot_path

#: Receiver chains that mean "the live collector, read inline".
_GUARDED_ATTRS = ("repro.obs.active",)


@register
class UnguardedObsCallRule(Rule):
    name = "unguarded-obs-call"
    description = (
        "no obs.active.X() in data-path modules; "
        "bind the module attr once and branch on None"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not _is_hot_path(ctx.module_name):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            # The receiver is everything left of the final method name:
            # obs.active.count(...) -> receiver chain "repro.obs.active".
            receiver = ctx.qualified_name(func.value)
            if receiver in _GUARDED_ATTRS:
                yield self.violation(
                    ctx,
                    node,
                    f"call through {receiver} bypasses the off-guard "
                    f"(crashes when observability is off, re-reads the "
                    f"module global when on); bind it to a local and "
                    f"test for None first",
                )
