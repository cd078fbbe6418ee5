"""schedule-shared-state: zero-delay callbacks mutating shared state.

The engine resolves same-timestamp heap entries by insertion sequence,
so a callback scheduled with ``delay=0`` (or at ``sim.now``) runs *at
the same instant* as every other entry already pending for that time —
in an order that is an accident of who called ``schedule_callback``
first.  If such a callback mutates state that other code can also see
at that instant (a module-level table, a closure variable shared with
the scheduling function), the final value depends on the tie-break: a
schedule-order race.

This is the static side of the dynamic detector in
:mod:`repro.analysis.race`: callback targets are resolved through the
file's :class:`~repro.analysis.scope.ModuleIndex` (``ctx.index``),
which knows module functions, ``self`` methods through base classes
in the same file, lexically enclosing nested functions, lambdas and
single-assignment aliases; the
*callee's* body is inspected for mutations of module-level or
closure-shared names.  Sites it flags are exactly the candidates worth
running under ``python -m repro.analysis --race-check``.

Time separation (any non-zero delay) clears the hazard: the engine
orders distinct timestamps totally.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.scope import assigned_names, own_nodes
from repro.analysis.linter import FileContext, Violation
from repro.analysis.rules import Rule, register

#: scheduling entry points (first positional arg is the delay / instant)
_SCHEDULERS = ("schedule_callback", "schedule_callback_at")

#: method names that mutate their receiver in place
_MUTATORS = {
    "append", "appendleft", "add", "extend", "update", "insert",
    "remove", "discard", "clear", "pop", "popleft", "popitem",
    "setdefault", "sort", "reverse", "push",
}


def _is_zero_delay(call: ast.Call) -> bool:
    """True when the schedule provably lands on the current instant."""
    if not call.args:
        return False
    when = call.args[0]
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "schedule_callback":
        return isinstance(when, ast.Constant) and when.value in (0, 0.0)
    # schedule_callback_at(<expr>.now, ...) / (<expr>._now, ...)
    return isinstance(when, ast.Attribute) and when.attr in ("now", "_now")


def _base_name(node: ast.AST) -> Optional[str]:
    """Leftmost Name of an attribute/subscript chain, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _mutations(callee: ast.AST, shared: Set[str]) -> List[Tuple[ast.AST, str]]:
    """(node, name) pairs where the callee body mutates a shared name."""
    found: List[Tuple[ast.AST, str]] = []
    declared: Set[str] = set()
    body = callee.body if isinstance(callee.body, list) else [callee.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in declared \
                            and target.id in shared:
                        found.append((node, target.id))
                    elif isinstance(target, (ast.Subscript, ast.Attribute)):
                        base = _base_name(target)
                        if base is not None and base != "self" and base in shared:
                            found.append((node, base))
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                    base = _base_name(func.value)
                    if base is not None and base != "self" and base in shared:
                        found.append((node, base))
    return found


@register
class ScheduleSharedStateRule(Rule):
    name = "schedule-shared-state"
    description = (
        "zero-delay scheduled callbacks must not mutate module-level or "
        "closure-shared state (same-timestamp order is an insertion "
        "accident; candidate schedule-order race)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        index = ctx.index
        module_mutables = assigned_names(ctx.tree)
        scopes = [(None, ctx.tree)] + [
            (fn, fn.node) for fn in index.functions.values()
        ]
        for fn, scope_node in scopes:
            for node in own_nodes(scope_node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute) and func.attr in _SCHEDULERS
                ):
                    continue
                if len(node.args) < 2 or not _is_zero_delay(node):
                    continue
                callback = node.args[1]
                callee = index.resolve_callback(callback, fn)
                if callee is None:
                    continue
                closure_shared: Set[str] = set()
                if fn is not None and callee.parent is not None:
                    # nested function / lambda: it can see (and race on)
                    # the locals of the scheduling function chain
                    closure_shared = index.enclosing_shared_names(fn)
                shared = set(module_mutables) | closure_shared
                for _mutation, name in _mutations(callee.node, shared):
                    origin = (
                        "closure-shared" if name in closure_shared
                        else "module-level"
                    )
                    target = ast.unparse(callback)
                    yield self.violation(
                        ctx,
                        node,
                        f"zero-delay {func.attr} runs {target} at the current "
                        f"instant, and it mutates {origin} {name!r}; the order "
                        f"against other same-timestamp entries is an insertion "
                        f"accident — add a time separation or verify with "
                        f"--race-check",
                    )
                    break  # one violation per schedule site
