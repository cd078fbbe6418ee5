"""The static cost model: AST nodes -> weighted cost classes.

Each cost class approximates one interpreter overhead per executed
event (a targeted fix removes the actionable ones outright):

========== ======  =================================================
class      weight  what it charges
========== ======  =================================================
alloc        10    list/dict/set displays, comprehensions, container
                   builtin calls (``list()``, ``dict()``, ...); tuple
                   displays with non-constant elements charge 3
                   (two-element tuples hit the free list); in-repo
                   constructor calls and closure/lambda creation
                   charge 12 (``__init__`` frame + object header)
str-format    8    f-strings, ``%`` on a string literal, literal
                   ``.format(...)``, string concatenation
gen-resume    6    ``yield`` / ``yield from`` sites (frame save +
                   restore per event the generator awaits)
kwargs-call   4    ``**kwargs`` / ``*args`` call expansion (dict/tuple
                   built per call)
try-loop      3    ``try`` blocks entered once per loop iteration
attr-dict     2    attribute access on instances of in-repo classes
                   known to carry a per-instance ``__dict__``
global-loop   1    global/builtin name lookups inside loops
========== ======  =================================================

Every site's effective weight is ``class_weight * 8**loop_depth``
(``loop_depths`` from :mod:`repro.analysis.flow.cfg`): a loop body is
assumed to run ~8x per entry, nested loops compound.  Sites on cold
paths are excluded entirely: ``raise`` statements and ``assert``
messages (error paths), and statements guarded by the repo's
observability/sanitizer idiom (``if _o is not None:``,
``if _engine.access_hook is not None:`` ...), which are no-ops in
production runs.  See DESIGN.md §10 for the soundness discussion.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.analysis.flow.callgraph import FunctionInfo, Program, own_nodes
from repro.analysis.flow.cfg import loop_depths

#: per-class base weights (relative interpreter cost, not nanoseconds).
WEIGHTS: Dict[str, float] = {
    "alloc": 10.0,
    "str-format": 8.0,
    "gen-resume": 6.0,
    "kwargs-call": 4.0,
    "try-loop": 3.0,
    "attr-dict": 2.0,
    "global-loop": 1.0,
}

#: alloc sub-weights (see the table above).
TUPLE_WEIGHT = 3.0
CTOR_WEIGHT = 12.0

#: assumed iterations per loop entry; nesting compounds exponentially.
LOOP_BASE = 8.0

#: container builtins whose call allocates.
_CONTAINER_BUILTINS = frozenset(
    {"list", "dict", "set", "tuple", "frozenset", "bytearray", "bytes"}
)

#: cold-guard detection: ``if <name> is not None:`` / ``if <name>:``
#: where the name/attribute is one of the repo's instrumentation
#: handles.  Statements under such guards cost nothing when profiling
#: and sanitizers are off (the production configuration).
COLD_GUARD_NAMES = frozenset({"_o", "_sp", "_mon", "_obs", "_hook", "_tr"})
COLD_GUARD_ATTRS = frozenset({"access_hook", "active", "trace_hook"})

#: names that never charge a global-loop lookup.
_FREE_NAMES = frozenset({"self", "True", "False", "None", "cls"})


@dataclass(frozen=True)
class CostItem:
    """One classified site inside a function."""

    cls: str
    line: int
    col: int
    loop_depth: int
    weight: float  # class weight * LOOP_BASE**loop_depth (* count)
    detail: str
    count: int = 1


def _is_cold_test(test: ast.AST) -> bool:
    target: Optional[ast.AST] = None
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        target = test.left
    elif isinstance(test, (ast.Name, ast.Attribute)):
        target = test
    if isinstance(target, ast.Name):
        return target.id in COLD_GUARD_NAMES
    if isinstance(target, ast.Attribute):
        return target.attr in COLD_GUARD_ATTRS
    return False


def excluded_ids(scope: ast.AST) -> Set[int]:
    """ids of every node on a cold path of ``scope``: bodies of cold
    guards, ``raise`` statements, and ``assert`` failure messages."""
    excluded: Set[int] = set()

    def mark(node: ast.AST) -> None:
        excluded.add(id(node))
        for child in ast.iter_child_nodes(node):
            mark(child)

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Raise):
            mark(node)
            return
        if isinstance(node, ast.Assert):
            if node.msg is not None:
                mark(node.msg)
            visit(node.test)
            return
        if isinstance(node, ast.If) and _is_cold_test(node.test):
            for stmt in node.body:
                mark(stmt)
            for stmt in node.orelse:
                visit(stmt)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            return  # nested scopes are classified on their own
        for child in ast.iter_child_nodes(node):
            visit(child)

    body = scope.body if isinstance(scope.body, list) else [scope.body]
    for stmt in body:
        visit(stmt)
    return excluded


def _call_name(func: ast.AST) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _item(
    cls: str, node: ast.AST, depth: int, detail: str, base: Optional[float] = None
) -> CostItem:
    weight = (WEIGHTS[cls] if base is None else base) * LOOP_BASE**depth
    return CostItem(
        cls=cls,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", -1) + 1,
        loop_depth=depth,
        weight=weight,
        detail=detail,
    )


class _Classifier:
    def __init__(self, fn: FunctionInfo, program: Program):
        self.fn = fn
        self.program = program
        self.idx = program.by_module.get(fn.module)
        self.resolve = program.resolver(fn)
        self.depths = loop_depths(fn.node)
        self.excluded = excluded_ids(fn.node)
        self.items: List[CostItem] = []
        #: f-string format specs parse as nested JoinedStr -- count
        #: only the outermost one.
        self._inner_joined: Set[int] = set()
        #: (name) -> [depths] for global-loop aggregation
        self._global_lookups: Dict[str, List[int]] = {}
        self._global_first: Dict[str, ast.Name] = {}
        #: class name -> [(node, depth)] for attr-dict aggregation
        self._dict_attrs: Dict[str, List[int]] = {}
        self._dict_first: Dict[str, ast.Attribute] = {}
        if self.idx is not None and not isinstance(fn.node, ast.Lambda):
            self._locals = self.idx.local_names(fn)
            self._locals |= set(self.idx.nested_functions(fn))
        else:
            self._locals = set()
        self._local_types = program._local_types(self.idx, fn) if self.idx else {}

    def run(self) -> List[CostItem]:
        for node in own_nodes(self.fn.node):
            if id(node) in self.excluded:
                continue
            self._classify(node)
        self._flush_aggregates()
        return self.items

    # -- per-node classification ---------------------------------------
    def _depth(self, node: ast.AST) -> int:
        return self.depths.get(id(node), 0)

    def _classify(self, node: ast.AST) -> None:
        depth = self._depth(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            self.items.append(
                _item("alloc", node, depth, f"closure allocation ({name})", CTOR_WEIGHT)
            )
        elif isinstance(node, ast.ListComp):
            self.items.append(_item("alloc", node, depth, "list comprehension"))
        elif isinstance(node, ast.SetComp):
            self.items.append(_item("alloc", node, depth, "set comprehension"))
        elif isinstance(node, ast.DictComp):
            self.items.append(_item("alloc", node, depth, "dict comprehension"))
        elif isinstance(node, ast.GeneratorExp):
            self.items.append(_item("alloc", node, depth, "generator expression"))
        elif isinstance(node, ast.List) and isinstance(node.ctx, ast.Load):
            self.items.append(_item("alloc", node, depth, "list display"))
        elif isinstance(node, ast.Set):
            self.items.append(_item("alloc", node, depth, "set display"))
        elif isinstance(node, ast.Dict):
            self.items.append(_item("alloc", node, depth, "dict display"))
        elif isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load):
            if any(not isinstance(e, ast.Constant) for e in node.elts):
                self.items.append(
                    _item("alloc", node, depth, "tuple display", TUPLE_WEIGHT)
                )
        elif isinstance(node, ast.Call):
            self._classify_call(node, depth)
        elif isinstance(node, ast.JoinedStr):
            if id(node) not in self._inner_joined:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.JoinedStr) and sub is not node:
                        self._inner_joined.add(id(sub))
                self.items.append(_item("str-format", node, depth, "f-string"))
        elif isinstance(node, ast.BinOp):
            self._classify_binop(node, depth)
        elif isinstance(node, ast.Attribute):
            self._classify_attribute(node, depth)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._classify_name(node, depth)
        elif isinstance(node, ast.Try):
            if depth >= 1:
                self.items.append(
                    _item("try-loop", node, depth, "try/except setup inside loop")
                )
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            self.items.append(
                _item("gen-resume", node, depth, "generator resume point")
            )

    def _classify_call(self, node: ast.Call, depth: int) -> None:
        if any(isinstance(a, ast.Starred) for a in node.args):
            self.items.append(
                _item("kwargs-call", node, depth, "*args call expansion")
            )
        if any(kw.arg is None for kw in node.keywords):
            self.items.append(
                _item("kwargs-call", node, depth, "**kwargs call expansion")
            )
        name = _call_name(node.func)
        if isinstance(node.func, ast.Name) and name in _CONTAINER_BUILTINS:
            self.items.append(_item("alloc", node, depth, f"{name}() call"))
            return
        if (
            name == "format"
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Constant)
            and isinstance(node.func.value.value, str)
        ):
            self.items.append(_item("str-format", node, depth, "str.format() call"))
            return
        # in-repo constructor: a capitalized Name matching a unique
        # program class (covers dataclasses, whose generated __init__
        # never appears in the AST), or a call resolving to __init__.
        if isinstance(node.func, ast.Name) and name[:1].isupper():
            if self.program._unique_class(name) is not None:
                self.items.append(
                    _item("alloc", node, depth, f"{name}(...) allocation", CTOR_WEIGHT)
                )
                return
        callee = self.resolve(node)
        if callee is not None and callee.name == "__init__":
            self.items.append(
                _item(
                    "alloc",
                    node,
                    depth,
                    f"{callee.cls or name}(...) allocation",
                    CTOR_WEIGHT,
                )
            )

    def _classify_binop(self, node: ast.BinOp, depth: int) -> None:
        def is_str(side: ast.AST) -> bool:
            return isinstance(side, ast.JoinedStr) or (
                isinstance(side, ast.Constant) and isinstance(side.value, str)
            )

        if isinstance(node.op, ast.Mod) and is_str(node.left):
            self.items.append(_item("str-format", node, depth, "%-format on string"))
        elif isinstance(node.op, ast.Add) and (is_str(node.left) or is_str(node.right)):
            self.items.append(_item("str-format", node, depth, "string concatenation"))

    def _classify_attribute(self, node: ast.Attribute, depth: int) -> None:
        cls_name = self._receiver_class(node.value)
        if cls_name is None:
            return
        if self.program.is_slotted(cls_name) is False:
            self._dict_attrs.setdefault(cls_name, []).append(depth)
            self._dict_first.setdefault(cls_name, node)

    def _receiver_class(self, value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Name):
            if value.id == "self":
                return self.fn.cls
            ref = self._local_types.get(value.id)
            return ref.rsplit(".", 1)[-1] if ref else None
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and self.fn.cls is not None
            and self.idx is not None
        ):
            cls_info = self.idx.classes.get(self.fn.cls)
            if cls_info is not None:
                ref = cls_info.attr_types.get(value.attr)
                return ref.rsplit(".", 1)[-1] if ref else None
        return None

    def _classify_name(self, node: ast.Name, depth: int) -> None:
        if depth < 1 or node.id in _FREE_NAMES or node.id in self._locals:
            return
        self._global_lookups.setdefault(node.id, []).append(depth)
        self._global_first.setdefault(node.id, node)

    # -- aggregation ----------------------------------------------------
    def _flush_aggregates(self) -> None:
        for name, depths in sorted(self._global_lookups.items()):
            node = self._global_first[name]
            weight = sum(WEIGHTS["global-loop"] * LOOP_BASE**d for d in depths)
            self.items.append(
                CostItem(
                    cls="global-loop",
                    line=node.lineno,
                    col=node.col_offset + 1,
                    loop_depth=min(depths),
                    weight=weight,
                    detail=f"global/builtin lookup of {name!r} inside loop",
                    count=len(depths),
                )
            )
        for cls_name, depths in sorted(self._dict_attrs.items()):
            node = self._dict_first[cls_name]
            weight = sum(WEIGHTS["attr-dict"] * LOOP_BASE**d for d in depths)
            self.items.append(
                CostItem(
                    cls="attr-dict",
                    line=node.lineno,
                    col=node.col_offset + 1,
                    loop_depth=min(depths),
                    weight=weight,
                    detail=(
                        f"attribute access on non-__slots__ class {cls_name} "
                        f"(per-instance __dict__ lookup)"
                    ),
                    count=len(depths),
                )
            )


def classify_function(fn: FunctionInfo, program: Program) -> List[CostItem]:
    """Classify every chargeable site of one function (cold paths
    excluded), sorted by position."""
    items = _Classifier(fn, program).run()
    items.sort(key=lambda i: (i.line, i.col, i.cls))
    return items
