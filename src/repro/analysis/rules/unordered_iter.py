"""unordered-iter: no set-ordered iteration feeding the scheduler.

Set iteration order depends on PYTHONHASHSEED (strings hash
differently every run), so a ``for endpoint in some_set:`` that
schedules work turns the whole simulation non-reproducible.  The rule
flags iteration over expressions that are provably sets -- set
literals, comprehensions, ``set()``/``frozenset()`` calls, set-algebra
methods, and local names only ever assigned such values -- unless the
result is consumed by an order-insensitive reduction (``sorted``,
``sum``, ``min``...).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.scope import own_nodes
from repro.analysis.linter import FileContext, Violation
from repro.analysis.rules import Rule, register

#: set-returning methods (set algebra).
SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Wrapping calls that make iteration order irrelevant.
ORDER_INSENSITIVE = frozenset(
    {"sorted", "sum", "min", "max", "len", "any", "all", "set", "frozenset",
     "Counter"}
)


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in SET_METHODS
            and _is_set_expr(func.value, set_names)
        ):
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra operators -- only when a side is a known set.
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _set_bound_names(scope: ast.AST) -> Set[str]:
    """Names in ``scope`` that are only ever assigned set expressions."""
    assigned_set: Set[str] = set()
    assigned_other: Set[str] = set()
    for node in own_nodes(scope):
        targets: List[ast.AST] = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = list(node.targets), node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value:
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if value is not None and _is_set_expr(value, assigned_set):
                assigned_set.add(target.id)
            else:
                assigned_other.add(target.id)
    return assigned_set - assigned_other


_COMP_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@register
class UnorderedIterRule(Rule):
    name = "unordered-iter"
    description = (
        "iteration over sets is PYTHONHASHSEED-dependent; sort first or "
        "keep an ordered list/dict"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        # Comprehensions whose entire result feeds an order-insensitive
        # reduction (sorted(x for x in s), "".join(...), sum(...)).
        exempt: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name in ORDER_INSENSITIVE or name == "join":
                for arg in node.args:
                    if isinstance(arg, _COMP_NODES):
                        exempt.add(id(arg))

        scopes = [ctx.tree] + [
            n for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            set_names = _set_bound_names(scope)
            for node in own_nodes(scope):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    if _is_set_expr(node.iter, set_names):
                        yield self._flag(ctx, node.iter)
                elif isinstance(node, _COMP_NODES) and id(node) not in exempt:
                    for comp in node.generators:
                        if _is_set_expr(comp.iter, set_names):
                            yield self._flag(ctx, comp.iter)

    def _flag(self, ctx: FileContext, node: ast.AST) -> Violation:
        return self.violation(
            ctx,
            node,
            "iteration order over a set depends on PYTHONHASHSEED; wrap in "
            "sorted(...) or keep an ordered collection if this feeds the "
            "scheduler",
        )
