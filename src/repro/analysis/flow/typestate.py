"""Typestate / lifecycle checking of the U-Net API protocols.

For every function that creates a tracked token (see :mod:`.specs`),
run a forward may-analysis over its exception-edge CFG:

* **facts** — ``("env", name, token)`` binds a local name to a token;
  ``("tok", token, state)`` says the token may be in ``state`` here.
  A token is identified by its creation site ``(spec, line, col)``.
  The payload carried on ``tok`` facts is the witness path.
* **creation** (``off = seg.alloc(n)``) is a strong update: prior
  facts for the same site die (loop iterations), the name is rebound,
  and the *exception* edge out of the creating statement carries the
  pre-state — if ``alloc`` raises, no token was produced.
* **operations** walk the spec's state machine; an op in a ``bad``
  state reports a finding with the witness accumulated so far, then
  parks the token in an absorbing ``error`` state to avoid cascades.
* **escape** — a token passed to an unresolved call, stored into an
  attribute/container, returned, or yielded moves to an absorbing
  ``escaped`` state: ownership may have transferred, so neither leaks
  nor misuse are reported for it past that point.
* **leaks** — any token still in a ``leak_state`` (e.g. ``allocated``)
  at the normal or exceptional exit is reported at its creation site;
  the exceptional case names the statement whose may-raise edge
  skipped the cleanup.

One level of interprocedural summaries: a callee whose *direct body
prefix* (the statements guaranteed to execute first on every normal
path) applies a protocol op to one of its parameters is summarised,
and resolved calls to it apply that op to the argument — so
``self._release(off)`` counts as the ``free`` it performs, and a
second ``_release`` is a double free across the call boundary.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import (
    FunctionInfo,
    Program,
    own_nodes,
)
from repro.analysis.flow.cfg import CFG, EXCEPTION, build_cfg
from repro.analysis.flow.dataflow import Facts, ForwardAnalysis
from repro.analysis.flow.specs import (
    ALL_SPECS,
    ARG0,
    CREATOR_METHODS,
    OPS_BY_METHOD,
    RECEIVER,
    OpRule,
    ProtocolSpec,
)
from repro.analysis.linter import Violation

SPEC_BY_NAME = {spec.name: spec for spec in ALL_SPECS}

#: absorbing states (no transitions, no reports)
ESCAPED = "escaped"
ERROR = "error"

Token = Tuple[str, int, int]  # (spec name, creation line, creation col)


# --------------------------------------------------------------------------
# small AST helpers
# --------------------------------------------------------------------------

def _method_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _unwrap(expr: ast.AST) -> ast.AST:
    """Peel ``yield from`` / ``await`` / ``yield`` wrappers off a value."""
    while isinstance(expr, (ast.Await, ast.YieldFrom)) or (
        isinstance(expr, ast.Yield) and expr.value is not None
    ):
        expr = expr.value
    return expr


def _calls_in(expr: ast.AST) -> List[ast.Call]:
    """Calls evaluated by ``expr`` — skips lambda bodies (not run here)."""
    calls: List[ast.Call] = []
    stack: List[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    calls.reverse()  # roughly inner-before-outer ~ evaluation order
    return calls


def _names_in(expr: ast.AST) -> Set[str]:
    return {
        n.id
        for n in ast.walk(expr)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _captured_names(fn: ast.AST) -> Set[str]:
    """Free names a lambda / nested def may capture from the enclosing
    scope — tokens they close over escape (the closure may free or
    keep them alive past this function's lifetime)."""
    args = fn.args
    bound = {
        p.arg for p in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    }
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    loaded: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                else:
                    bound.add(node.id)
    return loaded - bound


def _eval_exprs(stmt: ast.AST) -> List[ast.AST]:
    """The expressions actually evaluated when this CFG node executes.

    Compound statements contribute only their head expression — their
    bodies are separate CFG nodes.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.Try, ast.ExceptHandler)):
        return []
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, ast.Assert):
        return [stmt.test] + ([stmt.msg] if stmt.msg is not None else [])
    if isinstance(stmt, (ast.Assign, ast.AugAssign)):
        return [stmt.value]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, ast.Delete):
        return []
    return []


def _positional_params(callee: FunctionInfo, call: ast.Call) -> List[str]:
    """Positional parameter names aligned with ``call.args`` (dropping
    ``self`` when the call goes through an attribute receiver)."""
    args = callee.node.args
    params = [p.arg for p in list(args.posonlyargs) + list(args.args)]
    if params and params[0] in ("self", "cls") and isinstance(
        call.func, ast.Attribute
    ):
        params = params[1:]
    return params


# --------------------------------------------------------------------------
# interprocedural summaries
# --------------------------------------------------------------------------

def param_op_summaries(
    program: Program,
) -> Dict[str, Dict[str, Tuple[ProtocolSpec, OpRule, str]]]:
    """``fn qualname -> {param name -> (spec, op rule, method)}`` for
    functions whose guaranteed body prefix applies a protocol op to a
    parameter.  Only the prefix of simple direct-body statements is
    scanned, so the op provably runs whenever the function returns
    normally from that prefix."""
    summaries: Dict[str, Dict[str, Tuple[ProtocolSpec, OpRule, str]]] = {}
    for fn in program.functions.values():
        if isinstance(fn.node, ast.Lambda):
            continue
        params = fn.param_names()
        found: Dict[str, Tuple[ProtocolSpec, OpRule, str]] = {}
        for stmt in fn.node.body:
            if not isinstance(stmt, (ast.Expr, ast.Assign, ast.AnnAssign, ast.Pass)):
                break  # control flow: no longer guaranteed to execute
            value = None
            if isinstance(stmt, ast.Expr):
                value = _unwrap(stmt.value)
            elif isinstance(stmt, ast.Assign):
                value = _unwrap(stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value = _unwrap(stmt.value)
            if not isinstance(value, ast.Call):
                continue
            method = _method_name(value)
            for spec, rule in OPS_BY_METHOD.get(method, ()):
                token_expr = _op_token_expr(value, rule)
                if (
                    isinstance(token_expr, ast.Name)
                    and token_expr.id in params
                    and token_expr.id not in found
                ):
                    found[token_expr.id] = (spec, rule, method)
        if found:
            summaries[fn.qualname] = found
    return summaries


def _op_token_expr(call: ast.Call, rule: OpRule) -> Optional[ast.AST]:
    if rule.token_role == ARG0:
        return call.args[0] if call.args else None
    if rule.token_role == RECEIVER and isinstance(call.func, ast.Attribute):
        return call.func.value
    return None


# --------------------------------------------------------------------------
# the per-function checker
# --------------------------------------------------------------------------

class _FunctionChecker:
    def __init__(
        self,
        fn: FunctionInfo,
        resolver,
        summaries: Dict[str, Dict[str, Tuple[ProtocolSpec, OpRule, str]]],
    ):
        self.fn = fn
        self.resolve = resolver
        self.summaries = summaries
        self._findings: Dict[Tuple, Violation] = {}
        self._created_here: List[Token] = []

    # -- entry -------------------------------------------------------------
    def run(self) -> List[Violation]:
        cfg = build_cfg(self.fn.node)
        analysis = ForwardAnalysis(cfg, self._transfer).run()
        self._report_leaks(cfg, analysis)
        return list(self._findings.values())

    # -- transfer ----------------------------------------------------------
    def _transfer(self, node, facts: Facts):
        self._created_here = []
        if node.stmt is not None:
            self._apply_stmt(node.stmt, facts)
        if not self._created_here:
            return facts, dict(facts)
        out_exc = {
            key: payload
            for key, payload in facts.items()
            if not any(tok in key for tok in self._created_here)
        }
        return facts, out_exc

    def _apply_stmt(self, stmt: ast.AST, facts: Facts) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._escape_names(_captured_names(stmt), facts)
            self._kill_env(stmt.name, facts)
            return
        if isinstance(stmt, ast.Assign):
            self._apply_assign(stmt, facts)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._apply_assign(
                    ast.Assign(targets=[stmt.target], value=stmt.value), facts
                )
            elif isinstance(stmt.target, ast.Name):
                self._kill_env(stmt.target.id, facts)
            return
        if isinstance(stmt, ast.AugAssign):
            self._eval_calls(stmt.value, facts)
            if isinstance(stmt.target, ast.Name):
                # offset arithmetic: the token no longer names the range
                self._escape_names({stmt.target.id}, facts)
                self._kill_env(stmt.target.id, facts)
            return
        if isinstance(stmt, ast.Expr):
            value = _unwrap(stmt.value)
            spec = self._creator_spec(value)
            if spec is not None and spec.flag_dropped_result:
                self._record(
                    spec.leak_rule or f"flow-{spec.name}-dropped",
                    value.lineno,
                    value.col_offset + 1,
                    f"result of {_method_name(value)}() discarded: the "
                    f"{spec.noun} can never be freed",
                    (
                        f"{spec.noun} allocated at line {value.lineno} "
                        "with its offset thrown away",
                    ),
                )
                self._eval_calls(stmt.value, facts, skip=value)
            else:
                self._eval_calls(stmt.value, facts)
            if isinstance(stmt.value, (ast.Yield, ast.YieldFrom)):
                inner = stmt.value.value
                if inner is not None and not isinstance(inner, ast.Call):
                    self._escape_names(_names_in(inner), facts)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval_calls(stmt.value, facts)
                self._escape_names(_names_in(stmt.value), facts)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self._kill_env(target.id, facts)
            return
        if isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                self._kill_env(stmt.name, facts)
            return
        for expr in _eval_exprs(stmt):
            self._eval_calls(expr, facts)
        # loop / with targets rebind names
        bound: List[ast.AST] = []
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            bound = [stmt.target]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            bound = [i.optional_vars for i in stmt.items if i.optional_vars]
        for target in bound:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    self._kill_env(sub.id, facts)

    def _apply_assign(self, stmt: ast.Assign, facts: Facts) -> None:
        value = _unwrap(stmt.value)
        spec = self._creator_spec(value)
        name_targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        other_targets = [t for t in stmt.targets if not isinstance(t, ast.Name)]
        self._eval_calls(stmt.value, facts, skip=value if spec else None)
        if other_targets:
            # self.x = off / table[k] = off: ownership moves out of scope
            self._escape_names(_names_in(stmt.value), facts)
            for target in other_targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and isinstance(
                        sub.ctx, ast.Store
                    ):
                        self._kill_env(sub.id, facts)
        if spec is not None and name_targets:
            token: Token = (spec.name, value.lineno, value.col_offset + 1)
            self._strong_update(token, facts)
            for name in name_targets:
                self._kill_env(name, facts)
                facts[("env", name, token)] = None
            facts[("tok", token, spec.initial)] = (
                f"{spec.noun} '{name_targets[0]}' created by "
                f"{_method_name(value)}() at line {value.lineno}",
            )
            self._created_here.append(token)
        elif isinstance(value, ast.Name):
            tokens = self._tokens_of(value.id, facts)
            for name in name_targets:
                self._kill_env(name, facts)
                for token in tokens:
                    facts[("env", name, token)] = None
        else:
            for name in name_targets:
                self._kill_env(name, facts)

    # -- calls -------------------------------------------------------------
    def _creator_spec(self, expr: ast.AST) -> Optional[ProtocolSpec]:
        if not isinstance(expr, ast.Call):
            return None
        method = _method_name(expr)
        for spec in ALL_SPECS:
            if spec.creates(expr, method):
                return spec
        return None

    def _eval_calls(
        self, expr: ast.AST, facts: Facts, skip: Optional[ast.AST] = None
    ) -> None:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Lambda):
                self._escape_names(_captured_names(sub), facts)
        for call in _calls_in(expr):
            if call is skip:
                continue
            method = _method_name(call)
            ops = OPS_BY_METHOD.get(method, ())
            handled = False
            for spec, rule in ops:
                token_expr = _op_token_expr(call, rule)
                if isinstance(token_expr, ast.Name):
                    if self._apply_op(
                        spec, rule, method, token_expr.id, call, facts
                    ):
                        handled = True
            if handled:
                continue
            if method in CREATOR_METHODS and self._creator_spec(call):
                # creator in a non-binding position: the fresh token's
                # handle flows into the surrounding expression — escaped
                # from birth, nothing to track.  Its args are lengths.
                continue
            self._apply_unknown_call(call, facts)

    def _apply_op(
        self,
        spec: ProtocolSpec,
        rule: OpRule,
        method: str,
        name: str,
        call: ast.Call,
        facts: Facts,
    ) -> bool:
        tokens = [t for t in self._tokens_of(name, facts) if t[0] == spec.name]
        touched = False
        for token in tokens:
            for state in self._states_of(token, facts):
                key = ("tok", token, state)
                if state in rule.ok:
                    witness = facts.pop(key)
                    step = (
                        f"{method}({name}) at line {call.lineno}: "
                        f"{state} -> {rule.ok[state]}"
                    )
                    facts.setdefault(
                        ("tok", token, rule.ok[state]), witness + (step,)
                    )
                    touched = True
                elif state in rule.bad:
                    rule_id, message = rule.bad[state]
                    witness = facts.pop(key)
                    self._record(
                        rule_id,
                        call.lineno,
                        call.col_offset + 1,
                        message,
                        witness
                        + (
                            f"{method}({name}) at line {call.lineno} "
                            f"while already '{state}'",
                        ),
                    )
                    facts.setdefault(("tok", token, ERROR), witness)
                    touched = True
        return touched

    def _apply_unknown_call(self, call: ast.Call, facts: Facts) -> None:
        callee = self.resolve(call)
        escapees: Set[str] = set()
        summary = (
            self.summaries.get(callee.qualname) if callee is not None else None
        )
        params = _positional_params(callee, call) if callee is not None else []
        for position, arg in enumerate(call.args):
            arg = _unwrap(arg)
            if isinstance(arg, ast.Name):
                if (
                    summary
                    and position < len(params)
                    and params[position] in summary
                ):
                    spec, rule, method = summary[params[position]]
                    self._apply_op(
                        spec,
                        rule,
                        f"{callee.name}->{method}",
                        arg.id,
                        call,
                        facts,
                    )
                    continue
                escapees.add(arg.id)
            else:
                escapees |= _names_in(arg)
        for keyword in call.keywords:
            escapees |= _names_in(keyword.value)
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            escapees.add(func.value.id)
        self._escape_names(escapees, facts)

    # -- fact manipulation -------------------------------------------------
    def _tokens_of(self, name: str, facts: Facts) -> List[Token]:
        return [key[2] for key in facts if key[0] == "env" and key[1] == name]

    def _states_of(self, token: Token, facts: Facts) -> List[str]:
        return [
            key[2] for key in facts if key[0] == "tok" and key[1] == token
        ]

    def _kill_env(self, name: str, facts: Facts) -> None:
        for key in [k for k in facts if k[0] == "env" and k[1] == name]:
            del facts[key]

    def _strong_update(self, token: Token, facts: Facts) -> None:
        for key in [k for k in facts if token in k]:
            del facts[key]

    def _escape_names(self, names: Iterable[str], facts: Facts) -> None:
        for name in names:
            for token in self._tokens_of(name, facts):
                for state in self._states_of(token, facts):
                    if state in (ESCAPED, ERROR):
                        continue
                    witness = facts.pop(("tok", token, state))
                    facts.setdefault(("tok", token, ESCAPED), witness)

    # -- reporting ---------------------------------------------------------
    def _record(
        self, rule: str, line: int, col: int, message: str, witness: Tuple
    ) -> None:
        key = (rule, line, col, message)
        if key in self._findings:
            return
        self._findings[key] = Violation(
            path=self.fn.ctx.path,
            line=line,
            col=col,
            rule=rule,
            message=message,
            function=self.fn.qualname,
            witness=tuple(witness),
        )

    def _report_leaks(self, cfg: CFG, analysis: ForwardAnalysis) -> None:
        name = self.fn.name
        for kind, facts in (
            ("exit", analysis.facts_at_exit()),
            ("exc", analysis.facts_at_exc_exit()),
        ):
            seen: Set[Token] = set()
            for key in sorted(
                (k for k in facts if k[0] == "tok"), key=lambda k: k[1]
            ):
                _, token, state = key
                spec = SPEC_BY_NAME[token[0]]
                if state not in spec.leak_states or token in seen:
                    continue
                seen.add(token)
                witness = facts[key]
                if kind == "exit":
                    message = (
                        f"{spec.noun} leaks: a path through {name}() "
                        "reaches the function exit without free()"
                    )
                    extra = ("function exit reached without free()",)
                else:
                    message = (
                        f"{spec.noun} leaks on an error path: an exception "
                        f"can unwind {name}() before the free()"
                    )
                    extra = self._raiser_steps(cfg, analysis, key) + (
                        "the exception propagates out of the function "
                        "before any free()",
                    )
                self._record(
                    spec.leak_rule, token[1], token[2], message, witness + extra
                )

    def _raiser_steps(
        self, cfg: CFG, analysis: ForwardAnalysis, key
    ) -> Tuple[str, ...]:
        """Name the statement whose may-raise edge carried the leak."""
        candidates = []
        for src, edge_kind in cfg.preds()[cfg.exc_exit]:
            if edge_kind != EXCEPTION:
                continue
            if key in analysis.exc_outs.get(src, ()):
                node = cfg.nodes[src]
                if node.line:
                    candidates.append(node.line)
        if not candidates:
            return ()
        line = min(candidates)
        text = ""
        if 0 < line <= len(self.fn.ctx.lines):
            text = self.fn.ctx.lines[line - 1].strip()
        return (f"`{text}` (line {line}) may raise, skipping the cleanup",)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _has_creator(fn: FunctionInfo) -> bool:
    for node in own_nodes(fn.node):
        if isinstance(node, ast.Call):
            method = _method_name(node)
            if method in CREATOR_METHODS and any(
                spec.creates(node, method) for spec in ALL_SPECS
            ):
                return True
    return False


def check_program(program: Program) -> List[Violation]:
    summaries = param_op_summaries(program)
    findings: List[Violation] = []
    for fn in program.functions.values():
        if isinstance(fn.node, ast.Lambda):
            continue
        if not _has_creator(fn):
            continue
        checker = _FunctionChecker(fn, program.resolver(fn), summaries)
        findings.extend(checker.run())
    return findings
