"""simlint core: file parsing, disable-comment handling, rule driving.

The linter is AST-based and repo-specific: every rule encodes one
invariant the simulator's results depend on (simulated time only,
seeded randomness, deterministic ordering, one event queue).
Rules live in :mod:`repro.analysis.rules`; this module supplies the
shared machinery:

* :class:`FileContext` -- one parsed file plus the import table, the
  ``# simlint: disable=...`` map and the file's lexical scope index,
  handed to every rule.
* :class:`Violation` -- the one record type every rule reports, with
  a precise ``file:line:col`` position.
* :func:`lint_file` -- run a rule set over one file;
  :func:`analyze_paths` -- the whole-tree pass behind ``python -m
  repro.analysis``.

Escape hatches::

    x = frob()  # simlint: disable=wall-clock        (this line, this rule)
    y = nrob()  # simlint: disable                   (this line, all rules)
    # simlint: disable-file=unordered-iter           (whole file, this rule)
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

_DISABLE_RE = re.compile(
    r"#\s*simlint:\s*(disable-file|disable)"
    r"\s*(?:=\s*([\w-]+(?:\s*,\s*[\w-]+)*))?"
)


@dataclass(frozen=True)
class Violation:
    """One breach at a precise source position."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class LintError(Exception):
    """A file could not be linted (unreadable, unparseable)."""


class FileContext:
    """Everything a rule needs to inspect one source file."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise LintError(f"{path}: syntax error: {exc}") from exc
        self.lines = source.splitlines()
        #: line number -> set of rule names disabled there ("*" = all).
        self.disabled_lines: Dict[int, Set[str]] = {}
        #: rule names disabled for the entire file ("*" = all).
        self.disabled_file: Set[str] = set()
        self._scan_disable_comments()
        #: local name -> fully qualified name ("np" -> "numpy",
        #: "time" -> "time.time" for ``from time import time``).
        self.imports: Dict[str, str] = {}
        self._build_import_table()
        self._index = None

    @property
    def index(self):
        """This file's :class:`~repro.analysis.scope.ModuleIndex`, built
        on first use."""
        if self._index is None:
            from repro.analysis.scope import ModuleIndex

            self._index = ModuleIndex(self)
        return self._index

    # -- module identity -------------------------------------------------
    @property
    def module_name(self) -> str:
        """Dotted module path, rooted at the ``repro`` package when the
        file lives inside it (else "")."""
        parts = self.path.replace("\\", "/").split("/")
        if "repro" not in parts:
            return ""
        parts = parts[parts.index("repro"):]
        if parts[-1].endswith(".py"):
            parts[-1] = parts[-1][:-3]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    # -- disable comments --------------------------------------------------
    def _scan_disable_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                match = _DISABLE_RE.search(tok.string)
                if not match:
                    continue
                kind, names = match.group(1), match.group(2)
                rules = (
                    {name.strip() for name in names.split(",") if name.strip()}
                    if names
                    else {"*"}
                )
                if kind == "disable-file":
                    self.disabled_file |= rules
                else:
                    self.disabled_lines.setdefault(tok.start[0], set()).update(rules)
        except tokenize.TokenError:
            pass  # unterminated string etc.; ast.parse already vetted it

    def is_disabled(self, rule: str, line: int) -> bool:
        if "*" in self.disabled_file or rule in self.disabled_file:
            return True
        on_line = self.disabled_lines.get(line, ())
        return "*" in on_line or rule in on_line

    # -- import resolution -------------------------------------------------
    def _build_import_table(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{node.module}.{alias.name}"

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain through the import table.

        ``np.random.default_rng`` -> "numpy.random.default_rng" when the
        file holds ``import numpy as np``; unresolvable chains (calls,
        subscripts at the base) return None.
        """
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id, node.id)
        chain.append(base)
        return ".".join(reversed(chain))

    def violation(self, node: ast.AST, rule: str, message: str) -> Violation:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(self.path, line, col + 1, rule, message)


def read_context(path: str) -> FileContext:
    """Read and parse one file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise LintError(f"{path}: {exc}") from exc
    return FileContext(path, source)


def check_context(ctx: FileContext, rules: Sequence) -> List[Violation]:
    """Run ``rules`` over one parsed file; honours the disable comments."""
    return [
        violation
        for rule in rules
        for violation in rule.check(ctx)
        if not ctx.is_disabled(violation.rule, violation.line)
    ]


def _by_position(found: List[Violation]) -> List[Violation]:
    found.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return found


def lint_file(path: str, rules: Sequence, source: Optional[str] = None) -> List[Violation]:
    """Run ``rules`` over one file, sorted by position."""
    ctx = read_context(path) if source is None else FileContext(path, source)
    return _by_position(check_context(ctx, rules))


def analyze_paths(
    paths: Iterable[str], names: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Run the rules ``names`` (default: all) over every python file
    under ``paths``, sorted by position.  Unknown names raise KeyError
    before any file is parsed."""
    from repro.analysis.rules import all_rules, get_rules

    rules = get_rules(names) if names else all_rules()
    return _by_position(
        [
            violation
            for path in iter_python_files(paths)
            for violation in check_context(read_context(path), rules)
        ]
    )


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    import os

    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        if not os.path.isdir(path):
            raise LintError(f"{path}: no such file or directory")
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)

