"""Per-layer self-time ledger from a cProfile pass.

Every profiled frame's source file maps to one layer, named after the
module it lives in.  Self-time of code outside ``repro`` (builtins, the
standard library, numpy) is charged to the layer of the ``repro`` code
that called it: pstats keeps per-caller ``tt`` for every callee, so the
split is exact for direct callers, and a chain of non-repro callers is
followed up to the first repro frame in proportion to call-edge time.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Dict, Optional, Tuple

SUITE_DIR = Path(__file__).resolve().parent
SRC_REPRO = SUITE_DIR.parents[1] / "src" / "repro"

LAYERS = (
    "sim.engine",
    "sim.batch",
    "sim.resources",
    "atm",
    "ni",
    "core",
    "host",
    "ip",
    "am",
    "splitc",
    "bench",
    "harness",
    "other",
)

#: path under ``src/repro`` -> layer; the longest matching prefix wins,
#: and a file no prefix matches (``obs``, ``analysis``, the package
#: ``__init__``) is ``other``.
_PREFIXES = {
    "sim/": "sim.engine",
    "sim/batch.py": "sim.batch",
    "sim/resources.py": "sim.resources",
    "atm/": "atm",
    "core/": "core",
    "core/ni/": "ni",
    "host/": "host",
    "ip/": "ip",
    "am/": "am",
    "splitc/": "splitc",
    "bench/": "bench",
}

Func = Tuple[str, int, str]


def layer_of_module_path(rel: str) -> str:
    """Layer of a file given as a path relative to ``src/repro``."""
    best = ""
    for prefix in _PREFIXES:
        if rel.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return _PREFIXES[best] if best else "other"


def layer_of_file(filename: str) -> Optional[str]:
    """Layer of a profiled frame's file, or ``None`` outside the repo.

    Code compiled from a string under a ``<repro.pkg.module:tag>`` name
    (the engine's rendered cores) belongs to that module's layer.
    """
    if filename.startswith("<repro."):
        module = filename[1:].split(":", 1)[0].split(".")[1:]
        return layer_of_module_path("/".join(module) + ".py")
    if not filename or filename[0] in "<~":
        return None
    path = Path(filename).resolve()
    if path.is_relative_to(SRC_REPRO):
        return layer_of_module_path(path.relative_to(SRC_REPRO).as_posix())
    if path.is_relative_to(SUITE_DIR):
        return "harness"
    return None


def ledger(stats: pstats.Stats) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` for every layer in :data:`LAYERS`.

    ``calls`` counts calls *into* functions of the layer's own files;
    calls to non-repro code are counted nowhere.
    """
    # func -> (cc, nc, tt, ct, callers); callers: func -> (nc, cc, tt, ct)
    raw = stats.stats
    out = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    own: Dict[Func, Optional[str]] = {f: layer_of_file(f[0]) for f in raw}
    shares: Dict[Func, Dict[str, float]] = {}

    def split(func: Func, active: frozenset) -> Dict[str, float]:
        """How a function's time divides over layers: its own layer, or
        for non-repro code its callers' split, weighted by the time each
        caller spent in it (``active`` cuts recursion cycles)."""
        if own.get(func):
            return {own[func]: 1.0}
        if func in shares:
            return shares[func]
        weights: Dict[str, float] = {}
        total = 0.0
        for caller, edge in raw[func][4].items():
            if caller in active:
                continue
            for layer, frac in split(caller, active | {func}).items():
                weights[layer] = weights.get(layer, 0.0) + edge[3] * frac
            total += edge[3]
        shares[func] = (
            {k: v / total for k, v in weights.items()} if total > 0 else {"other": 1.0}
        )
        return shares[func]

    for func, (_cc, nc, tt, _ct, callers) in raw.items():
        layer = own[func]
        if layer:
            out[layer]["self_s"] += tt
            out[layer]["calls"] += nc
            continue
        edge_tt = 0.0
        for caller, edge in callers.items():
            edge_tt += edge[2]
            for target, frac in split(caller, frozenset({func})).items():
                out[target]["self_s"] += edge[2] * frac
        if tt > edge_tt:  # roots and recursion the edges do not cover
            out["other"]["self_s"] += tt - edge_tt
    return out
