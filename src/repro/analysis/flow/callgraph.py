"""Module index and whole-program call resolution.

Two layers:

* :class:`ModuleIndex` — the lexical index of ONE parsed file: every
  function/method (including nested ones) with its enclosing scope
  chain, per-scope local names, class attribute types inferred from
  ``self.x = ClassName(...)`` / annotated parameters, and resolution
  of callback references (``self.method``, nested functions, module
  functions, aliases).  Each file gets one index
  (``FileContext.index``), shared by typestate and the simlint rule
  ``schedule-shared-state``, which runs on this layer alone and keeps
  its per-file semantics.

* :class:`Program` — every ModuleIndex of the analyzed tree plus
  cross-module resolution of one call site at a time
  (:meth:`Program.resolver`): imported names, constructors, ``self``
  methods through in-repo base classes in other modules, and
  attribute receivers with inferred types.

Resolution is deliberately conservative: a call resolves only when the
callee is identified.  Unresolvable calls return None, and typestate
treats them as unknown (see DESIGN.md §9 known unsoundness).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.linter import FileContext, iter_python_files, read_context


@dataclass
class FunctionInfo:
    """One function, method, nested function, or lambda."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    ctx: FileContext
    cls: Optional[str] = None  # owning class bare name, if a method
    parent: Optional[str] = None  # qualname of lexically enclosing function

    @property
    def args(self) -> ast.arguments:
        return self.node.args

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
    module: str
    bases: List[str] = field(default_factory=list)  # reference strings
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn qualname
    #: attribute name -> class reference string (from ``self.x = Cls(...)``
    #: or ``self.x = param`` with an annotated parameter).
    attr_types: Dict[str, str] = field(default_factory=dict)


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


def _annotation_ref(node: Optional[ast.AST]) -> Optional[str]:
    """Render an annotation to a dotted reference string, if simple."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip().strip('"')
    if isinstance(node, (ast.Name, ast.Attribute)):
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on these
            return None
    if isinstance(node, ast.Subscript):  # Optional[X] / List[X] — take X
        return None
    return None


class ModuleIndex:
    """Lexical scoping index of one parsed file."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.module = ctx.module_name or ctx.path
        #: qualname -> FunctionInfo (module funcs, methods, nested, lambdas)
        self.functions: Dict[str, FunctionInfo] = {}
        #: bare class name -> ClassInfo
        self.classes: Dict[str, ClassInfo] = {}
        #: id(ast node) -> FunctionInfo for reverse lookups
        self.by_node: Dict[int, FunctionInfo] = {}
        #: module-level function name -> qualname
        self.module_functions: Dict[str, str] = {}
        self._index()

    # -- indexing ---------------------------------------------------------
    def _index(self) -> None:
        self._walk_scope(self.ctx.tree, prefix=self.module, cls=None, parent=None)
        for info in self.classes.values():
            self._infer_attr_types(info)

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
                    qualname=qual,
                    module=self.module,
                    name=stmt.name,
                    node=stmt,
                    ctx=self.ctx,
                    cls=cls,
                    parent=parent,
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
                    module=self.module,
                    bases=[
                        r for r in (_annotation_ref(b) for b in stmt.bases) if r
                    ],
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
                        qualname=qual,
                        module=self.module,
                        name="<lambda>",
                        node=child,
                        ctx=self.ctx,
                        parent=prefix,
                    )
                    self.functions[qual] = info
                    self.by_node[id(child)] = info

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        for qual in cls.methods.values():
            fn = self.functions[qual]
            params: Dict[str, str] = {}
            args = fn.node.args
            for p in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                ref = _annotation_ref(p.annotation)
                if ref:
                    params[p.arg] = ref
            for node in own_nodes(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        ref = self._value_type_ref(node.value, params)
                        if ref and target.attr not in cls.attr_types:
                            cls.attr_types[target.attr] = ref

    def _value_type_ref(
        self, value: ast.AST, params: Dict[str, str]
    ) -> Optional[str]:
        """Class reference for an assigned value: ``Cls(...)`` or an
        annotated parameter name."""
        if isinstance(value, ast.Call):
            ref = _annotation_ref(value.func)
            if ref and ref.rsplit(".", 1)[-1][:1].isupper():
                return ref
        if isinstance(value, ast.Name):
            return params.get(value.id)
        return None

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
        module functions, ``self.method`` (through in-repo base
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
            info = self.by_node.get(id(expr))
            return info
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
        """A method by name on a class or its in-repo base classes
        (in-module only; :class:`Program` extends this across modules)."""
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


class Program:
    """The whole-repo view: every ModuleIndex plus cross-module call
    resolution."""

    def __init__(self, indexes: Sequence[ModuleIndex]):
        self.indexes: List[ModuleIndex] = list(indexes)
        self.by_module: Dict[str, ModuleIndex] = {
            idx.module: idx for idx in self.indexes
        }
        self.functions: Dict[str, FunctionInfo] = {}
        for idx in self.indexes:
            self.functions.update(idx.functions)
        #: bare class name -> [ClassInfo] across modules
        self._classes_by_name: Dict[str, List[ClassInfo]] = {}
        for idx in self.indexes:
            for info in idx.classes.values():
                self._classes_by_name.setdefault(info.name, []).append(info)

    # -- construction -----------------------------------------------------
    @classmethod
    def from_paths(cls, paths: Iterable[str]) -> "Program":
        return cls([read_context(path).index for path in iter_python_files(paths)])

    def _local_types(self, idx: ModuleIndex, fn: FunctionInfo) -> Dict[str, str]:
        """name -> class reference for annotated params and
        ``x = ClassName(...)`` locals."""
        types: Dict[str, str] = {}
        if isinstance(fn.node, ast.Lambda):
            return types
        args = fn.node.args
        for p in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            ref = _annotation_ref(p.annotation)
            if ref:
                types[p.arg] = ref
        for node in own_nodes(fn.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                ref = _annotation_ref(node.value.func)
                if ref and ref.rsplit(".", 1)[-1][:1].isupper():
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = ref
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                ref = _annotation_ref(node.annotation)
                if ref:
                    types[node.target.id] = ref
        return types

    def _resolve_call(
        self,
        idx: ModuleIndex,
        fn: FunctionInfo,
        node: ast.Call,
        local_types: Dict[str, str],
    ) -> Optional[FunctionInfo]:
        func = node.func
        # name(...) — nested / module-level / imported / class constructor
        if isinstance(func, ast.Name):
            local = idx.resolve_callback(func, fn)
            if local is not None:
                return local
            ctor = self._constructor(idx, func.id)
            if ctor is not None:
                return ctor
            return self._resolve_imported(idx, func)
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        # self.m(...)
        if isinstance(base, ast.Name) and base.id == "self" and fn.cls is not None:
            found = self._resolve_method_global(idx, fn.cls, func.attr)
            if found is not None:
                return found
        # self.attr.m(...) via inferred attribute types
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and fn.cls is not None
        ):
            cls_info = idx.classes.get(fn.cls)
            if cls_info is not None:
                ref = cls_info.attr_types.get(base.attr)
                if ref is not None:
                    return self._method_of_ref(ref, func.attr)
        # var.m(...) via local annotation / construction
        if isinstance(base, ast.Name) and base.id in local_types:
            return self._method_of_ref(local_types[base.id], func.attr)
        # module.func(...) via imports
        return self._resolve_imported(idx, func)

    def _constructor(self, idx: ModuleIndex, name: str) -> Optional[FunctionInfo]:
        cls_info = idx.classes.get(name)
        if cls_info is None:
            hit = self._unique_class(name)
            if hit is None:
                return None
            cls_info = hit
        init = cls_info.methods.get("__init__")
        if init is not None:
            return self.functions.get(init)
        return None

    def _unique_class(self, bare: str) -> Optional[ClassInfo]:
        hits = self._classes_by_name.get(bare, [])
        return hits[0] if len(hits) == 1 else None

    def _method_of_ref(self, ref: str, method: str) -> Optional[FunctionInfo]:
        bare = ref.rsplit(".", 1)[-1]
        cls_info = self._unique_class(bare)
        if cls_info is None:
            return None
        idx = self.by_module.get(cls_info.module)
        if idx is None:
            return None
        return self._resolve_method_global(idx, cls_info.name, method)

    def _resolve_method_global(
        self, idx: ModuleIndex, cls_name: str, method: str
    ) -> Optional[FunctionInfo]:
        """Like ModuleIndex.resolve_method but follows base classes into
        other modules of the program."""
        found = idx.resolve_method(cls_name, method)
        if found is not None:
            return found
        info = idx.classes.get(cls_name)
        if info is None:
            hit = self._unique_class(cls_name)
            if hit is None:
                return None
            info = hit
            idx2 = self.by_module.get(info.module)
            if idx2 is not None and idx2 is not idx:
                return self._resolve_method_global(idx2, info.name, method)
            return None
        for base in info.bases:
            bare = base.rsplit(".", 1)[-1]
            base_info = self._unique_class(bare)
            if base_info is None:
                continue
            base_idx = self.by_module.get(base_info.module)
            if base_idx is None:
                continue
            found = self._resolve_method_global(base_idx, base_info.name, method)
            if found is not None:
                return found
        return None

    def _resolve_imported(
        self, idx: ModuleIndex, ref: ast.AST
    ) -> Optional[FunctionInfo]:
        """Resolve ``mod.func`` / imported ``func`` across modules."""
        qual = idx.ctx.qualified_name(ref)
        if qual is None:
            return None
        hit = self.functions.get(qual)
        if hit is not None:
            return hit
        # re-exported names: match a unique program function by suffix
        module, _, bare = qual.rpartition(".")
        if not module.startswith("repro"):
            return None
        candidates = [
            f
            for f in self.functions.values()
            if f.name == bare and f.cls is None and f.parent is None
        ]
        return candidates[0] if len(candidates) == 1 else None

    # -- queries ----------------------------------------------------------
    def resolver(self, fn: FunctionInfo):
        """A per-function closure mapping an ``ast.Call`` inside ``fn``
        to its resolved callee (or None)."""
        idx = self.by_module.get(fn.module)
        if idx is None:  # pragma: no cover - fn always comes from an index
            return lambda call: None
        local_types = self._local_types(idx, fn)

        def resolve(call: ast.Call) -> Optional[FunctionInfo]:
            return self._resolve_call(idx, fn, call, local_types)

        return resolve
