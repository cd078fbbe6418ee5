"""Per-function control-flow graphs with exception edges.

Statement-granularity CFG: every simple statement is a node; ``if`` /
loops / ``try`` contribute branch structure.  The distinguishing
feature for the typestate clients is the **exception edges**: any
statement that may raise gets an edge to the innermost matching
``except`` handler chain, through ``finally`` blocks, and ultimately
to the function's *exceptional exit* — so "an exception here skips the
``free()`` below" is a path the dataflow engine actually walks.

May-raise model (see DESIGN.md §9 for the soundness discussion):

* explicit ``raise`` / ``assert`` statements;
* any statement containing a call, EXCEPT calls whose method name is
  in :data:`NON_RAISING` — the simulator's cost-charging generators
  (``host.compute(...)``, ``host.copy(...)``, ``host.syscall()``) and
  observability guards, which never raise in practice and would
  otherwise drown real error paths in noise;
* ``yield`` / ``yield from`` of a non-whitelisted expression (the
  awaited event can fail).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: method names treated as never-raising: the simulator's cost-charging
#: generators / observability guards, plus total builtins — without
#: these, every ``host.copy(len(data))`` would count as an error path.
NON_RAISING = frozenset(
    {
        "compute",
        "copy",
        "syscall",
        "timeout",
        "begin",
        "end",
        "annotate",
        "count",
        "gauge_max",
        "observe",
        "sample",
        "charge",
        "append",
        "info",
        "debug",
        "len",
        "min",
        "max",
        "abs",
        "range",
        "enumerate",
        "zip",
        "sorted",
        "isinstance",
        "hasattr",
        "getattr",
        "bool",
        "repr",
        "format",
    }
)

#: edge kinds
NORMAL = "normal"
EXCEPTION = "exception"


@dataclass
class Node:
    index: int
    stmt: Optional[ast.AST]  # None for the synthetic entry/exit/join nodes
    label: str
    line: int = 0
    col: int = 0
    may_raise: bool = False


@dataclass
class CFG:
    nodes: List[Node] = field(default_factory=list)
    #: node index -> [(successor index, edge kind)]
    succ: Dict[int, List[Tuple[int, str]]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 1
    exc_exit: int = 2

    def node(self, stmt: Optional[ast.AST], label: str, may_raise: bool = False) -> int:
        index = len(self.nodes)
        self.nodes.append(
            Node(
                index=index,
                stmt=stmt,
                label=label,
                line=getattr(stmt, "lineno", 0),
                col=getattr(stmt, "col_offset", -1) + 1,
                may_raise=may_raise,
            )
        )
        self.succ[index] = []
        return index

    def edge(self, src: int, dst: int, kind: str = NORMAL) -> None:
        if (dst, kind) not in self.succ[src]:
            self.succ[src].append((dst, kind))

    def preds(self) -> Dict[int, List[Tuple[int, str]]]:
        back: Dict[int, List[Tuple[int, str]]] = {n.index: [] for n in self.nodes}
        for src, edges in self.succ.items():
            for dst, kind in edges:
                back[dst].append((src, kind))
        return back


def _expr_may_raise(node: ast.AST) -> bool:
    """True when evaluating ``node`` can raise under the model above."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else ""
            )
            if name not in NON_RAISING:
                return True
        elif isinstance(sub, (ast.Yield, ast.YieldFrom)):
            inner = sub.value
            if inner is None:
                continue
            if isinstance(inner, ast.Call):
                func = inner.func
                name = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else ""
                )
                if name in NON_RAISING:
                    continue
            return True
    return False


class _TryFrame:
    __slots__ = (
        "handler_heads",
        "catch_all",
        "finally_join",
        "in_body",
        "saw_exception",
        "saw_return",
    )

    def __init__(self) -> None:
        self.handler_heads: List[int] = []
        self.catch_all = False
        self.finally_join: Optional[int] = None
        self.in_body = True
        self.saw_exception = False
        self.saw_return = False


class _Builder:
    def __init__(self, fn_node: ast.AST):
        self.cfg = CFG()
        self.cfg.entry = self.cfg.node(None, "entry")
        self.cfg.exit = self.cfg.node(None, "exit")
        self.cfg.exc_exit = self.cfg.node(None, "exc-exit")
        self.frames: List[_TryFrame] = []
        #: (continue_target, break_sinks) per enclosing loop
        self.loops: List[Tuple[int, List[int]]] = []
        body = fn_node.body if isinstance(fn_node.body, list) else [
            ast.Expr(value=fn_node.body)
        ]
        frontier = self._build_body(body, [self.cfg.entry])
        for node in frontier:
            self.cfg.edge(node, self.cfg.exit)

    # -- exception routing ------------------------------------------------
    def _exc_targets(self) -> List[int]:
        targets: List[int] = []
        for frame in reversed(self.frames):
            if frame.in_body and frame.handler_heads:
                targets.extend(frame.handler_heads)
                if frame.catch_all:
                    return targets
            if frame.finally_join is not None:
                frame.saw_exception = True
                targets.append(frame.finally_join)
                return targets
        targets.append(self.cfg.exc_exit)
        return targets

    def _wire_exceptions(self, node: int) -> None:
        for target in self._exc_targets():
            self.cfg.edge(node, target, EXCEPTION)

    # -- statement building -----------------------------------------------
    def _add(
        self, frontier: List[int], stmt: ast.AST, label: str, may_raise: bool
    ) -> int:
        node = self.cfg.node(stmt, label, may_raise)
        for src in frontier:
            self.cfg.edge(src, node)
        if may_raise:
            self._wire_exceptions(node)
        return node

    def _build_body(self, body: Sequence[ast.AST], frontier: List[int]) -> List[int]:
        for stmt in body:
            frontier = self._build_stmt(stmt, frontier)
        return frontier

    def _build_stmt(self, stmt: ast.AST, frontier: List[int]) -> List[int]:
        if not frontier:
            return []  # unreachable code
        if isinstance(stmt, (ast.If,)):
            test = self._add(frontier, stmt, "if", _expr_may_raise(stmt.test))
            then = self._build_body(stmt.body, [test])
            other = self._build_body(stmt.orelse, [test]) if stmt.orelse else [test]
            return then + other
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head_expr = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            head = self._add(frontier, stmt, "loop", _expr_may_raise(head_expr))
            breaks: List[int] = []
            self.loops.append((head, breaks))
            body_exits = self._build_body(stmt.body, [head])
            self.loops.pop()
            for node in body_exits:
                self.cfg.edge(node, head)
            after = self._build_body(stmt.orelse, [head]) if stmt.orelse else [head]
            return after + breaks
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            head = self._add(
                frontier,
                stmt,
                "with",
                any(_expr_may_raise(i.context_expr) for i in stmt.items),
            )
            return self._build_body(stmt.body, [head])
        if isinstance(stmt, ast.Return):
            node = self._add(
                frontier,
                stmt,
                "return",
                _expr_may_raise(stmt.value) if stmt.value else False,
            )
            self._route_return(node)
            return []
        if isinstance(stmt, ast.Raise):
            node = self.cfg.node(stmt, "raise", True)
            for src in frontier:
                self.cfg.edge(src, node)
            self._wire_exceptions(node)
            return []
        if isinstance(stmt, ast.Assert):
            node = self._add(frontier, stmt, "assert", True)
            return [node]
        if isinstance(stmt, ast.Break):
            node = self._add(frontier, stmt, "break", False)
            if self.loops:
                self.loops[-1][1].append(node)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._add(frontier, stmt, "continue", False)
            if self.loops:
                self.cfg.edge(node, self.loops[-1][0])
            return []
        # plain statement (expression, assignment, pass, import, def, ...)
        label = type(stmt).__name__.lower()
        return [self._add(frontier, stmt, label, _expr_may_raise(stmt))]

    def _route_return(self, node: int) -> None:
        for frame in reversed(self.frames):
            if frame.finally_join is not None:
                frame.saw_return = True
                self.cfg.edge(node, frame.finally_join)
                return
        self.cfg.edge(node, self.cfg.exit)

    def _build_try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        frame = _TryFrame()
        for handler in stmt.handlers:
            head = self.cfg.node(handler, "except")
            frame.handler_heads.append(head)
            if handler.type is None:
                frame.catch_all = True
            else:
                ref = None
                try:
                    ref = ast.unparse(handler.type)
                except (ValueError, AttributeError):  # pragma: no cover
                    pass
                if ref in ("Exception", "BaseException"):
                    frame.catch_all = True
        if stmt.finalbody:
            frame.finally_join = self.cfg.node(None, "finally")
        self.frames.append(frame)
        body_exits = self._build_body(stmt.body, frontier)
        body_exits = self._build_body(stmt.orelse, body_exits)
        frame.in_body = False
        handler_exits: List[int] = []
        for head, handler in zip(frame.handler_heads, stmt.handlers):
            handler_exits.extend(self._build_body(handler.body, [head]))
        self.frames.pop()
        if frame.finally_join is None:
            return body_exits + handler_exits
        # Route every normal completion through the finally body.
        join = frame.finally_join
        for node in body_exits + handler_exits:
            self.cfg.edge(node, join)
        finally_exits = self._build_body(stmt.finalbody, [join])
        if frame.saw_exception:
            # the exception continues outward after the finally body
            saved = list(self.frames)
            for node in finally_exits:
                for target in self._exc_targets():
                    self.cfg.edge(node, target, EXCEPTION)
            self.frames = saved
        if frame.saw_return:
            for node in finally_exits:
                self.cfg.edge(node, self.cfg.exit)
        if not (body_exits or handler_exits):
            # only exceptional/return routes enter the finally
            return []
        return finally_exits


def build_cfg(fn_node: ast.AST) -> CFG:
    """Build the CFG of one function/lambda AST node."""
    return _Builder(fn_node).cfg

