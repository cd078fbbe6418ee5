"""slots-hot-path: registered hot-path classes must carry ``__slots__``.

The engine's event classes and the ATM cell are allocated millions of
times per run; PR 1 made them all slotted.  A forgotten ``__slots__`` on
a *subclass* silently reintroduces a per-instance ``__dict__`` (Python
adds one whenever any class in the MRO lacks slots), quietly undoing
the optimisation.  This rule keeps the registry honest:

* every class listed in :data:`HOT_PATH_CLASSES` must define
  ``__slots__`` (or be a ``@dataclass(slots=True)``);
* any class that *subclasses* a registered hot-path class -- resolved
  through the file's imports -- must define ``__slots__`` itself.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import FileContext, Violation
from repro.analysis.rules import Rule, register

#: module -> classes that must stay slotted (the registered hot paths).
HOT_PATH_CLASSES = {
    "repro.sim.engine": {
        "Event", "Timeout", "Process", "AnyOf", "Simulator",
    },
    "repro.atm.cell": {"Cell"},
}

#: Fully qualified spellings under which the hot-path bases can be
#: imported (both the defining module and the re-exporting package).
HOT_PATH_BASE_QUALNAMES = frozenset(
    {
        "repro.sim.engine.Event",
        "repro.sim.engine.Timeout",
        "repro.sim.engine.Process",
        "repro.sim.engine.AnyOf",
        "repro.sim.Event",
        "repro.sim.Timeout",
        "repro.sim.Process",
        "repro.sim.AnyOf",
        "repro.atm.cell.Cell",
        "repro.atm.Cell",
    }
)


def _defines_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _is_slotted_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def _is_slotted(node: ast.ClassDef) -> bool:
    return _defines_slots(node) or _is_slotted_dataclass(node)


@register
class SlotsHotPathRule(Rule):
    name = "slots-hot-path"
    description = (
        "registered hot-path classes (engine events, Cell) and their "
        "subclasses must define __slots__"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        required = HOT_PATH_CLASSES.get(ctx.module_name, set())
        local_hot = set(required)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name in required and not _is_slotted(node):
                yield self.violation(
                    ctx,
                    node,
                    f"{node.name} is a registered hot-path class and must "
                    f"define __slots__ (or use @dataclass(slots=True))",
                )
                continue
            for base in node.bases:
                base_name = base.id if isinstance(base, ast.Name) else None
                qual = ctx.qualified_name(base)
                is_hot_base = (
                    (base_name is not None and base_name in local_hot)
                    or (qual is not None and qual in HOT_PATH_BASE_QUALNAMES)
                )
                if is_hot_base:
                    # Subclasses of slotted hot-path classes stay hot.
                    local_hot.add(node.name)
                    if not _is_slotted(node):
                        yield self.violation(
                            ctx,
                            node,
                            f"{node.name} subclasses the slotted hot-path "
                            f"class {base_name or qual} without __slots__; "
                            f"Python silently adds a per-instance __dict__, "
                            f"undoing the optimisation",
                        )
                    break
