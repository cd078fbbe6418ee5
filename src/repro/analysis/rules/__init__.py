"""The pluggable simlint rule set.

Each rule is a class with a unique ``name``, a one-line ``description``,
and a ``check(ctx)`` generator yielding
:class:`~repro.analysis.linter.Violation` records.  Registration is by
decorator; importing this package loads every built-in rule module so
``all_rules()`` reflects the full set.

Adding a rule: drop a module in this package, subclass :class:`Rule`,
decorate with :func:`register`, and import the module below.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Type

from repro.analysis.linter import FileContext, Violation


class Rule:
    """Base class for simlint rules."""

    #: Unique kebab-case identifier (used in reports and disable comments).
    name: str = ""
    #: One-line human description for ``--list-rules``.
    description: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node, message: str) -> Violation:
        return ctx.violation(node, self.name, message)


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its name."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_rules(names: Iterable[str]) -> List[Rule]:
    """Look up rules by name; unknown names raise KeyError."""
    picked = []
    for name in names:
        if name not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise KeyError(f"unknown rule {name!r} (known: {known})")
        picked.append(_REGISTRY[name])
    return picked


# Built-in rules: importing each module triggers its @register.
from repro.analysis.rules import (  # noqa: E402,F401
    callback_arity,
    direct_heapq,
    direct_tracer_append,
    mutable_default,
    or_default,
    schedule_shared_state,
    silent_except,
    slots_hot_path,
    unguarded_obs_call,
    unordered_iter,
    unseeded_random,
    wall_clock,
    yield_event,
)
