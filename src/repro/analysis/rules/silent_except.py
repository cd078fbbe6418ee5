"""silent-except: no bare ``except`` or broad silent drops.

NI firmware models sit in the data path: a bare ``except:`` (which also
catches ``GeneratorExit`` and ``KeyboardInterrupt``) or an
``except Exception: pass`` turns a real protocol bug into a silently
dropped message and a benchmark that quietly reports wrong numbers.
Narrow handlers with real fallback bodies stay legal; broad handlers
must at least count or trace what they swallow.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import FileContext, Violation
from repro.analysis.rules import Rule, register

#: Exception names considered "broad" when silently swallowed.
BROAD = frozenset({"Exception", "BaseException"})


def _is_silent_body(body) -> bool:
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        return False
    return True


def _names_broad(node) -> bool:
    if node is None:
        return True
    if isinstance(node, ast.Tuple):
        return any(_names_broad(elt) for elt in node.elts)
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name in BROAD


@register
class SilentExceptRule(Rule):
    name = "silent-except"
    description = (
        "no bare except, and no broad (Exception/BaseException) handler "
        "that silently drops -- count or trace what you swallow"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    ctx,
                    node,
                    "bare `except:` also catches GeneratorExit and "
                    "KeyboardInterrupt; name the exception types",
                )
            elif _names_broad(node.type) and _is_silent_body(node.body):
                caught = ast.unparse(node.type)
                yield self.violation(
                    ctx,
                    node,
                    f"`except {caught}` silently drops every failure in an "
                    f"NI/model code path; narrow the type or count/trace the "
                    f"swallowed error",
                )
