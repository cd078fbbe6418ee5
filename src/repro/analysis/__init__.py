"""repro.analysis: static analysis + runtime invariants for the simulator.

Three sub-systems:

* **static analysis** -- one pass, ``python -m repro.analysis PATHS``
  (:func:`repro.analysis.linter.analyze_paths`).  Every file is parsed
  once and the simlint rules (:mod:`repro.analysis.rules`) check it:
  simulated time only, seeded randomness, no ``x or Default()``
  collaborator fallbacks, deterministic iteration, no shared mutable
  defaults or zero-delay shared-state callbacks, ``__slots__`` on hot
  paths, no silent exception drops, no ``print()`` or private
  ``heapq`` in model code.
* **sanitizers** (:mod:`repro.analysis.sanitize`) -- runtime ownership
  and queue-invariant checking for communication segments and
  descriptor rings, armed by ``sanitize.enable()`` or inside
  ``sanitize.sanitized()``.
* **race check** (:mod:`repro.analysis.race`,
  :mod:`repro.analysis.perturb`) -- the dynamic schedule-order race
  detector, and a harness that re-runs figure scenarios under other
  same-timestamp tie orders and another ``PYTHONHASHSEED`` and diffs
  the results (``python -m repro.analysis --race-check NAMES``).  The
  detector is armed only inside ``race.detected()``.

This ``__init__`` stays import-light: the core data path imports
:mod:`repro.analysis.sanitize` through here, so the linter machinery
loads lazily on first attribute access.
"""

from __future__ import annotations

from repro.analysis import sanitize  # noqa: F401  (light: stdlib + errors)

_LAZY = {
    "FileContext": "repro.analysis.linter",
    "LintError": "repro.analysis.linter",
    "Violation": "repro.analysis.linter",
    "iter_python_files": "repro.analysis.linter",
    "lint_file": "repro.analysis.linter",
    "analyze_paths": "repro.analysis.linter",
    "Rule": "repro.analysis.rules",
    "all_rules": "repro.analysis.rules",
    "get_rules": "repro.analysis.rules",
    "register": "repro.analysis.rules",
    "RaceFinding": "repro.analysis.race",
    "RaceReport": "repro.analysis.race",
    "RaceTracker": "repro.analysis.race",
    "race_check": "repro.analysis.perturb",
}

__all__ = sorted(_LAZY) + ["sanitize"]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
