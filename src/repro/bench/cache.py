"""Content-addressed result cache for sweep points.

Every figure sweep is a pure function of (a) the scenario parameters
and (b) the simulator + model source code: the simulation is
deterministic, so re-running an unchanged point is pure waste.  This
module gives :func:`repro.bench.parallel.parallel_map` a persistent
memo keyed by *content*, not by time:

``key = sha256(fn identity || canonical(params) || source digest)``

* **fn identity** -- module + qualname of the sweep-point function.
* **canonical(params)** -- a stable rendering of the point's arguments
  (dict keys sorted, floats in hex so ``0.1`` never drifts through a
  repr round-trip).
* **source digest** -- one hash over every ``.py`` file under
  ``repro/`` *and* the benchmark module that defines ``fn``.  Editing
  any model source invalidates every cached point; nothing is ever
  served stale.

Entries are pickle files under ``.bench_cache/`` at the repository
root (override with ``REPRO_BENCH_CACHE_DIR``; disable entirely with
``REPRO_BENCH_CACHE=0``).  The cache declines to serve hits while
simulator instrumentation (REPRO_RACE / REPRO_OBS) is active, because
a cached result would skip the monitor side effects the run exists to
observe.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

#: package directory whose sources participate in the digest
_PKG_ROOT = Path(__file__).resolve().parents[1]
#: repository root (…/src/repro/bench/cache.py -> three levels up)
_REPO_ROOT = Path(__file__).resolve().parents[3]

#: process-wide counters, reported by benchmarks/bench_perf.py
hits = 0
misses = 0
stores = 0

_source_digest: Optional[str] = None

#: memoized writability probes, keyed by cache directory path — a
#: read-only or otherwise broken cache location downgrades the cache
#: to a no-op instead of raising on every sweep point.
_writable_probe: dict = {}


def _writable(directory: Path) -> bool:
    key = str(directory)
    cached = _writable_probe.get(key)
    if cached is not None:
        return cached
    try:
        directory.mkdir(parents=True, exist_ok=True)
        probe = directory / f".probe.{os.getpid()}.tmp"
        with open(probe, "wb") as fh:
            fh.write(b"ok")
        os.unlink(probe)
        ok = True
    except OSError:
        ok = False
    _writable_probe[key] = ok
    return ok


def enabled() -> bool:
    """True unless ``REPRO_BENCH_CACHE=0``, instrumentation is live, or
    the cache directory cannot be written (declined, never an error)."""
    if os.environ.get("REPRO_BENCH_CACHE", "1") == "0":
        return False
    from repro.sim import engine

    if engine._monitor_factory is not None:
        return False
    return _writable(cache_dir())


def cache_dir() -> Path:
    override = os.environ.get("REPRO_BENCH_CACHE_DIR")
    return Path(override) if override else _REPO_ROOT / ".bench_cache"


def _iter_sources():
    for path in sorted(_PKG_ROOT.rglob("*.py")):
        if "__pycache__" not in path.parts:
            yield path


def source_digest() -> str:
    """Digest of every source file under ``repro/`` (memoized)."""
    global _source_digest
    if _source_digest is None:
        h = hashlib.sha256()
        for path in _iter_sources():
            h.update(str(path.relative_to(_PKG_ROOT)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _source_digest = h.hexdigest()
    return _source_digest


def invalidate_source_digest() -> None:
    """Forget the memoized digest (sources changed underneath us)."""
    global _source_digest
    _source_digest = None


def _canonical(value: Any) -> str:
    """Stable, recursive rendering of a scenario parameter value."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (int, str, bytes, bool)) or value is None:
        return repr(value)
    if isinstance(value, (list, tuple)):
        inner = ",".join(_canonical(v) for v in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    if isinstance(value, dict):
        inner = ",".join(
            f"{_canonical(k)}:{_canonical(value[k])}" for k in sorted(value)
        )
        return f"{{{inner}}}"
    return repr(value)  # dataclass reprs etc.; stable for our params


def _fn_source_digest(fn: Callable) -> str:
    """Hash the file defining ``fn`` when it lives outside ``repro/``
    (the ``benchmarks/bench_fig*.py`` modules)."""
    module = sys.modules.get(fn.__module__)
    path = getattr(module, "__file__", None)
    if path is None:
        return ""
    path = Path(path)
    try:
        path.relative_to(_PKG_ROOT)
        return ""  # already covered by source_digest()
    except ValueError:
        pass
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return ""


def cache_key(fn: Callable, item: Any) -> str:
    h = hashlib.sha256()
    h.update(f"{fn.__module__}.{fn.__qualname__}".encode())
    h.update(b"\0")
    h.update(_canonical(item).encode())
    h.update(b"\0")
    h.update(source_digest().encode())
    h.update(_fn_source_digest(fn).encode())
    return h.hexdigest()


def lookup(key: str) -> Tuple[bool, Any]:
    """Return ``(hit, value)``; never raises on a corrupt entry.

    A truncated or unpicklable entry (e.g. a writer killed before the
    atomic rename ever happened, leaving a stale full-size file from an
    older format) is treated as a miss *and* unlinked, so the sweep
    recomputes and overwrites it instead of tripping on it every run.
    """
    global hits, misses
    path = cache_dir() / f"{key}.pkl"
    try:
        with open(path, "rb") as fh:
            value = pickle.load(fh)
    except FileNotFoundError:
        misses += 1
        return False, None
    except (OSError, pickle.PickleError, EOFError, AttributeError):
        misses += 1
        try:
            os.unlink(path)
        except OSError:
            pass
        return False, None
    hits += 1
    return True, value


def store(key: str, value: Any) -> None:
    """Persist a result; atomic rename so readers never see a torn file."""
    global stores
    directory = cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp = directory / f".{key}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, directory / f"{key}.pkl")
        stores += 1
    except (OSError, pickle.PickleError):
        pass  # a cache that cannot write is just a slow cache


def clear() -> int:
    """Delete all cache entries; returns the number removed."""
    _writable_probe.clear()
    removed = 0
    directory = cache_dir()
    if directory.is_dir():
        for path in directory.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def reset_counters() -> None:
    global hits, misses, stores
    hits = misses = stores = 0
