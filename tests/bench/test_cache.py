"""Content-addressed sweep cache: keying, hit/miss, invalidation."""

import pickle

import pytest

from repro.bench import cache, parallel_map
from repro.sim import engine

#: call log for the module-level sweep function (serial workers only)
CALLS = []


def _square(x):
    CALLS.append(x)
    return x * x


def _cube(x):
    return x * x * x


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    monkeypatch.setenv("REPRO_BENCH_PROCS", "1")  # keep CALLS in-process
    cache.reset_counters()
    CALLS.clear()
    yield cache_dir
    cache.reset_counters()
    cache.invalidate_source_digest()


def test_miss_compute_store_then_hit(tmp_cache):
    assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
    assert CALLS == [1, 2, 3]
    assert (cache.misses, cache.stores, cache.hits) == (3, 3, 0)
    CALLS.clear()
    assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
    assert CALLS == []  # pure hits: nothing recomputed
    assert cache.hits == 3


def test_partial_hits_preserve_order(tmp_cache):
    parallel_map(_square, [2])
    CALLS.clear()
    assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
    assert CALLS == [1, 3]  # only the misses ran, results still in order


def test_key_varies_by_fn_and_params(tmp_cache):
    base = cache.cache_key(_square, 3)
    assert cache.cache_key(_square, 3) == base
    assert cache.cache_key(_square, 4) != base
    assert cache.cache_key(_cube, 3) != base


def test_canonical_params_are_stable():
    assert cache._canonical(0.1) == (0.1).hex()
    assert cache._canonical({"b": 1, "a": 2.5}) == cache._canonical(
        dict([("a", 2.5), ("b", 1)])
    )
    assert cache._canonical([1, "x"]) != cache._canonical((1, "x"))
    assert cache._canonical(1) != cache._canonical(1.0)


def test_source_edit_invalidates_key(tmp_cache, tmp_path, monkeypatch):
    pkg = tmp_path / "fake_pkg"
    pkg.mkdir()
    source = pkg / "model.py"
    source.write_text("RATE = 1\n")
    monkeypatch.setattr(cache, "_PKG_ROOT", pkg)
    cache.invalidate_source_digest()
    before = cache.cache_key(_square, 3)
    source.write_text("RATE = 2\n")
    cache.invalidate_source_digest()
    after = cache.cache_key(_square, 3)
    assert before != after


def test_disabled_by_env(tmp_cache, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
    assert not cache.enabled()
    parallel_map(_square, [5])
    parallel_map(_square, [5])
    assert CALLS == [5, 5]  # recomputed both times
    assert not list(tmp_cache.glob("*.pkl"))


def test_disabled_under_instrumentation(tmp_cache):
    assert cache.enabled()
    engine.set_instrumentation(lambda: object(), None)
    try:
        assert not cache.enabled()
    finally:
        engine.set_instrumentation(None, None)
    assert cache.enabled()


def test_corrupt_entry_is_a_miss(tmp_cache):
    key = cache.cache_key(_square, 7)
    cache.store(key, 49)
    (tmp_cache / f"{key}.pkl").write_bytes(b"not a pickle")
    hit, value = cache.lookup(key)
    assert (hit, value) == (False, None)
    parallel_map(_square, [7])  # recomputes and heals the entry
    assert CALLS == [7]
    assert pickle.loads((tmp_cache / f"{key}.pkl").read_bytes()) == 49


def test_store_is_atomic_and_clear_removes(tmp_cache):
    for i in range(4):
        cache.store(cache.cache_key(_square, i), i * i)
    entries = list(tmp_cache.glob("*.pkl"))
    assert len(entries) == 4
    assert not list(tmp_cache.glob("*.tmp"))  # no torn temp files left
    assert cache.clear() == 4
    assert not list(tmp_cache.glob("*.pkl"))
    assert cache.clear() == 0  # idempotent, also fine on empty/missing dir


def test_truncated_entry_is_unlinked_not_served(tmp_cache):
    key = cache.cache_key(_square, 9)
    cache.store(key, 81)
    path = tmp_cache / f"{key}.pkl"
    path.write_bytes(path.read_bytes()[:2])  # writer died mid-file
    hit, value = cache.lookup(key)
    assert (hit, value) == (False, None)
    assert not path.exists()  # the torn file is gone, not retried forever


def test_unwritable_dir_declines_service_but_still_computes(
    tmp_path, monkeypatch
):
    # A regular file where the cache dir's parent should be makes
    # mkdir() fail even for root (chmod is a no-op under
    # CAP_DAC_OVERRIDE, so permission bits cannot model this).
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(blocker / "cache"))
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    monkeypatch.setenv("REPRO_BENCH_PROCS", "1")
    cache.reset_counters()
    CALLS.clear()
    cache._writable_probe.clear()
    try:
        assert not cache.enabled()  # declined, no exception raised
        assert parallel_map(_square, [1, 2]) == [1, 4]
        assert CALLS == [1, 2]  # computed straight through, uncached
        assert (cache.hits, cache.misses, cache.stores) == (0, 0, 0)
        # the verdict is memoized: repeated sweeps do not re-probe
        assert cache._writable_probe[str(blocker / "cache")] is False
    finally:
        cache._writable_probe.clear()
        cache.reset_counters()


def test_writable_probe_leaves_no_droppings(tmp_cache):
    assert cache.enabled()
    assert not list(tmp_cache.glob("*.tmp"))
    assert not list(tmp_cache.glob(".probe*"))


def test_sweep_workers_caps_auto_budget(monkeypatch):
    from repro.bench import parallel

    monkeypatch.delenv("REPRO_BENCH_PROCS", raising=False)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
    assert parallel.sweep_workers() == 8
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
    assert parallel.sweep_workers() == parallel.MAX_AUTO_WORKERS == 8
    # an explicit override is taken literally, above the cap or not
    monkeypatch.setenv("REPRO_BENCH_PROCS", "12")
    assert parallel.sweep_workers() == 12
    monkeypatch.setenv("REPRO_BENCH_PROCS", "garbage")
    assert parallel.sweep_workers() == 1
