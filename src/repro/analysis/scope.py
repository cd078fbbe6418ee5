"""Lexical scopes of one parsed file, for the simlint rules.

:class:`ModuleIndex` indexes every function, method, nested function
and lambda of one file with its enclosing scope chain and per-scope
local names, and resolves callback references (``self.method``
through in-module base classes, nested functions, module functions,
lambdas and single-assignment aliases).  Each file gets one index
(``FileContext.index``); ``schedule-shared-state`` runs on it.
:func:`own_nodes` and :func:`assigned_names` walk one scope without
entering nested definitions (``unordered-iter`` uses them too).

Resolution is deliberately conservative: a reference resolves only
when its target is identified in the same file; anything else
returns None.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.linter import FileContext


@dataclass
class FunctionInfo:
    """One function, method, nested function, or lambda."""

    qualname: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    cls: Optional[str] = None  # owning class bare name, if a method
    parent: Optional[str] = None  # qualname of lexically enclosing function

    def param_names(self) -> Set[str]:
        a = self.node.args
        names = {p.arg for p in list(a.posonlyargs) + list(a.args) + list(a.kwonlyargs)}
        if a.vararg:
            names.add(a.vararg.arg)
        if a.kwarg:
            names.add(a.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    qualname: str
    name: str
    bases: List[str] = field(default_factory=list)  # reference strings
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn qualname


def own_nodes(scope: ast.AST) -> Iterable[ast.AST]:
    """Walk ``scope`` without descending into nested function/class
    defs (the defs themselves are yielded, their bodies are not)."""
    body = scope.body if isinstance(scope.body, list) else [scope.body]
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def assigned_names(scope: ast.AST) -> Set[str]:
    """Names bound by assignment/for/with directly in ``scope``."""
    names: Set[str] = set()
    for node in own_nodes(scope):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            targets = [i.optional_vars for i in node.items if i.optional_vars]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names


def _base_ref(node: ast.AST) -> Optional[str]:
    """A base-class expression as a dotted reference string, if simple."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return ast.unparse(node)
    return None


class ModuleIndex:
    """Lexical scoping index of one parsed file."""

    def __init__(self, ctx: FileContext):
        self.module = ctx.module_name or ctx.path
        #: qualname -> FunctionInfo (module funcs, methods, nested, lambdas)
        self.functions: Dict[str, FunctionInfo] = {}
        #: bare class name -> ClassInfo
        self.classes: Dict[str, ClassInfo] = {}
        #: id(ast node) -> FunctionInfo for reverse lookups
        self.by_node: Dict[int, FunctionInfo] = {}
        #: module-level function name -> qualname
        self.module_functions: Dict[str, str] = {}
        self._walk_scope(ctx.tree, prefix=self.module, cls=None, parent=None)

    # -- indexing ---------------------------------------------------------
    def _walk_scope(
        self,
        scope: ast.AST,
        prefix: str,
        cls: Optional[str],
        parent: Optional[str],
    ) -> None:
        body = scope.body if isinstance(scope.body, list) else [scope.body]
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{stmt.name}"
                info = FunctionInfo(
                    qualname=qual, name=stmt.name, node=stmt, cls=cls, parent=parent
                )
                self.functions[qual] = info
                self.by_node[id(stmt)] = info
                if cls is not None and parent is None:
                    self.classes[cls].methods[stmt.name] = qual
                elif cls is None and parent is None:
                    self.module_functions[stmt.name] = qual
                self._walk_scope(stmt, prefix=qual, cls=None, parent=qual)
                self._collect_lambdas(stmt, qual)
            elif isinstance(stmt, ast.ClassDef) and cls is None and parent is None:
                info = ClassInfo(
                    qualname=f"{prefix}.{stmt.name}",
                    name=stmt.name,
                    bases=[r for r in (_base_ref(b) for b in stmt.bases) if r],
                )
                self.classes[stmt.name] = info
                self._walk_scope(
                    stmt, prefix=info.qualname, cls=stmt.name, parent=None
                )

    def _collect_lambdas(self, fn: ast.AST, prefix: str) -> None:
        for node in own_nodes(fn):
            for child in ast.walk(node):
                if isinstance(child, ast.Lambda) and id(child) not in self.by_node:
                    qual = f"{prefix}.<lambda>L{child.lineno}"
                    info = FunctionInfo(
                        qualname=qual, name="<lambda>", node=child, parent=prefix
                    )
                    self.functions[qual] = info
                    self.by_node[id(child)] = info

    # -- scope helpers ----------------------------------------------------
    def scope_chain(self, fn: FunctionInfo) -> List[FunctionInfo]:
        """The function plus its lexically enclosing functions, inner first."""
        chain = [fn]
        cur = fn
        while cur.parent is not None:
            cur = self.functions[cur.parent]
            chain.append(cur)
        return chain

    def local_names(self, fn: FunctionInfo) -> Set[str]:
        """Assigned locals + parameters of one function scope."""
        return assigned_names(fn.node) | fn.param_names()

    def enclosing_shared_names(self, fn: FunctionInfo) -> Set[str]:
        """Names a nested function/lambda shares with its enclosing
        function scopes (candidates for closure-shared state)."""
        names: Set[str] = set()
        for scope in self.scope_chain(fn):
            names |= self.local_names(scope)
        return names

    def nested_functions(self, fn: FunctionInfo) -> Dict[str, FunctionInfo]:
        body = fn.node.body if isinstance(fn.node.body, list) else []
        return {
            stmt.name: self.by_node[id(stmt)]
            for stmt in body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    # -- reference resolution ---------------------------------------------
    def resolve_callback(
        self, expr: ast.AST, scope: Optional[FunctionInfo]
    ) -> Optional[FunctionInfo]:
        """Resolve a callback reference expression inside ``scope``.

        Handles lambdas, nested functions (through the lexical chain),
        module functions, ``self.method`` (through in-module base
        classes), and single-assignment local aliases of any of these.
        """
        return self._resolve_ref(expr, scope, seen=set())

    def _resolve_ref(
        self,
        expr: ast.AST,
        scope: Optional[FunctionInfo],
        seen: Set[str],
    ) -> Optional[FunctionInfo]:
        if isinstance(expr, ast.Lambda):
            return self.by_node.get(id(expr))
        if isinstance(expr, ast.Name):
            if scope is not None:
                for enclosing in self.scope_chain(scope):
                    nested = self.nested_functions(enclosing)
                    if expr.id in nested:
                        return nested[expr.id]
                alias = self._local_alias(expr.id, scope, seen)
                if alias is not None:
                    return alias
            qual = self.module_functions.get(expr.id)
            if qual is not None:
                return self.functions[qual]
            return None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and scope is not None
            and scope.cls is not None
        ):
            return self.resolve_method(scope.cls, expr.attr)
        return None

    def _local_alias(
        self, name: str, scope: FunctionInfo, seen: Set[str]
    ) -> Optional[FunctionInfo]:
        """``f = self._handler`` / ``f = helper``: follow the alias when
        ``name`` has exactly one plain assignment in ``scope``."""
        if name in seen:
            return None
        seen.add(name)
        sources = [
            node.value
            for node in own_nodes(scope.node)
            if isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets
            )
        ]
        if len(sources) != 1:
            return None
        return self._resolve_ref(sources[0], scope, seen)

    def resolve_method(
        self, cls_name: str, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[FunctionInfo]:
        """A method by name on a class or its base classes defined in
        the same file."""
        seen = _seen if _seen is not None else set()
        if cls_name in seen:
            return None
        seen.add(cls_name)
        info = self.classes.get(cls_name)
        if info is None:
            return None
        qual = info.methods.get(method)
        if qual is not None:
            return self.functions[qual]
        for base in info.bases:
            found = self.resolve_method(base.rsplit(".", 1)[-1], method, seen)
            if found is not None:
                return found
        return None
