"""Shared helpers for the simflow test suite."""

import textwrap
from pathlib import Path

from repro.analysis.flow.callgraph import Program
from repro.analysis.linter import FileContext

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def make_program(**modules) -> Program:
    """Build a :class:`Program` from in-memory sources.

    Each keyword is a module: ``make_program(net="def f(): ...")``
    indexes the source under the synthetic path ``src/repro/net.py``,
    so cross-module import resolution (``from repro.net import f``)
    works exactly as it does on the real tree.
    """
    indexes = [
        FileContext(f"src/repro/{name}.py", textwrap.dedent(src)).index
        for name, src in modules.items()
    ]
    return Program(indexes)


def fixture_program(*names) -> Program:
    return Program.from_paths([str(FIXTURES / name) for name in names])
