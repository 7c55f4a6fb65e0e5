"""The on-disk shard-result cache: hits, eviction, degradation policy."""

from __future__ import annotations

import json

import pytest

from repro.errors import CacheError
from repro.parallel.cache import CACHE_SCHEMA, ResultCache, default_cache_dir

KEY = "ab" + "0" * 62
PAYLOAD = {"channels": [[0, 1, {"x": 1.5}]], "total_cycles": 1000}


def test_miss_put_hit_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "c")
    assert cache.get(KEY) is None
    cache.put(KEY, PAYLOAD)
    assert cache.get(KEY) == PAYLOAD
    assert cache.stats == {"hits": 1, "misses": 1, "evictions": 0}


def test_two_level_fanout_layout(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put(KEY, PAYLOAD)
    path = cache.path_for(KEY)
    assert path == tmp_path / "c" / KEY[:2] / f"{KEY}.json"
    assert path.exists()
    # Atomic write: no temp droppings left behind.
    assert not list((tmp_path / "c").rglob(".tmp-*"))


def test_corrupt_entries_are_evicted_as_misses(tmp_path):
    cache = ResultCache(tmp_path / "c")
    path = cache.path_for(KEY)
    path.parent.mkdir(parents=True)

    for bad in (
        "not json at all {",
        json.dumps(["not", "an", "object"]),
        json.dumps({"schema": "wrong", "key": KEY, "payload": {}}),
        json.dumps({"schema": CACHE_SCHEMA, "schema_version": 99,
                    "key": KEY, "payload": {}}),
        json.dumps({"schema": CACHE_SCHEMA, "schema_version": 1,
                    "key": "somebody-else", "payload": {}}),
        json.dumps({"schema": CACHE_SCHEMA, "schema_version": 1,
                    "key": KEY, "payload": "not a dict"}),
    ):
        path.write_text(bad)
        assert cache.get(KEY) is None
        assert not path.exists()  # evicted, cannot shadow a future write

    cache.put(KEY, PAYLOAD)
    assert cache.get(KEY) == PAYLOAD


def test_disabled_cache_is_inert(tmp_path):
    cache = ResultCache(tmp_path / "c", enabled=False)
    cache.put(KEY, PAYLOAD)
    assert cache.get(KEY) is None
    assert not (tmp_path / "c").exists()
    assert cache.stats == {"hits": 0, "misses": 0, "evictions": 0}


def test_explicit_impossible_root_raises(tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("x")
    with pytest.raises(CacheError):
        ResultCache(blocker / "cache")


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path / "c")
    for i in range(3):
        cache.put(f"{i:02d}" + "f" * 62, PAYLOAD)
    assert cache.clear() == 3
    assert cache.get("00" + "f" * 62) is None


def test_eviction_counter_tracks_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path / "c")
    path = cache.path_for(KEY)
    path.parent.mkdir(parents=True)
    path.write_text("not json {")
    assert cache.get(KEY) is None
    assert cache.stats["evictions"] == 1


def test_entry_vanishing_before_read_is_a_plain_miss(tmp_path):
    """A sibling process may evict an entry between our existence check and
    read — that must be a miss, never an exception."""
    cache = ResultCache(tmp_path / "c")
    cache.put(KEY, PAYLOAD)
    cache.path_for(KEY).unlink()  # simulate the concurrent eviction
    assert cache.get(KEY) is None
    assert cache.stats == {"hits": 0, "misses": 1, "evictions": 0}


def test_entry_vanishing_before_evict_is_tolerated(tmp_path):
    cache = ResultCache(tmp_path / "c")
    # Evicting a path that no longer exists must not raise or count.
    cache._evict(tmp_path / "c" / "ab" / "gone.json")
    assert cache.stats["evictions"] == 0


def test_clear_tolerates_concurrent_removal(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put(KEY, PAYLOAD)
    other = ResultCache(tmp_path / "c")
    assert other.clear() == 1
    assert cache.clear() == 0  # everything already gone; no error


def test_schema_namespaces_are_disjoint(tmp_path):
    """Two caches with different envelope schemas sharing one directory can
    never replay each other's entries (the service vs. campaign split)."""
    shard = ResultCache(tmp_path / "c")
    service = ResultCache(tmp_path / "c", schema="drbw-service-job")
    shard.put(KEY, PAYLOAD)
    assert service.get(KEY) is None  # wrong schema: miss + eviction
    assert service.stats["evictions"] == 1
    service.put(KEY, PAYLOAD)
    assert service.get(KEY) == PAYLOAD


def _stress_worker(root: str, n_rounds: int, worker_id: int) -> dict:
    """One side of the two-process race: hammer get/put/corrupt/evict cycles
    against a shared directory and report what happened.  Any exception
    escaping the cache API is the bug this test exists to catch."""
    import pathlib

    cache = ResultCache(pathlib.Path(root))
    bad_reads = 0
    for i in range(n_rounds):
        key = f"{i % 7:02d}" + "e" * 62
        try:
            got = cache.get(key)
            if got is not None and got != PAYLOAD:
                bad_reads += 1
            cache.put(key, PAYLOAD)
            path = cache.path_for(key)
            if i % 3 == worker_id % 3:
                # Corrupt the entry under the other process's feet...
                try:
                    path.write_text("corrupt {")
                except OSError:
                    pass
            elif i % 5 == worker_id % 5:
                # ...or yank it entirely.
                try:
                    path.unlink()
                except OSError:
                    pass
            cache.get(key)
        except Exception as exc:  # pragma: no cover - the failure path
            return {"ok": False, "error": repr(exc), "round": i}
    return {"ok": True, "bad_reads": bad_reads, "stats": cache.stats}


def test_two_process_eviction_stress(tmp_path):
    """Two processes sharing a cache directory, each corrupting and evicting
    entries while the other reads: no exception may escape, and every
    successful read must be the exact payload."""
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        results = pool.starmap(
            _stress_worker, [(str(tmp_path / "c"), 120, 0), (str(tmp_path / "c"), 120, 1)]
        )
    for r in results:
        assert r["ok"], f"cache API raised under contention: {r}"
        assert r["bad_reads"] == 0


def test_default_cache_dir_resolution(monkeypatch, tmp_path):
    monkeypatch.setenv("DRBW_CACHE_DIR", str(tmp_path / "explicit"))
    assert default_cache_dir() == tmp_path / "explicit"
    monkeypatch.delenv("DRBW_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "drbw"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert default_cache_dir().name == "drbw"


def _plant_orphans(root, names):
    for sub, name in names:
        d = root / sub
        d.mkdir(parents=True, exist_ok=True)
        (d / f".tmp-{name}.json").write_text("{}")


def test_sweep_logs_per_sweep_delta_not_lifetime_total(tmp_path, caplog):
    """Regression: each sweep must report how many orphans *it* removed,
    not the cache's cumulative lifetime counter."""
    root = tmp_path / "c"
    _plant_orphans(root, [("ab", "one"), ("cd", "two")])
    with caplog.at_level("INFO", logger="repro.parallel.cache"):
        cache = ResultCache(root, orphan_max_age_s=0.0)
    assert cache.orphans_swept == 2
    assert "swept 2 orphaned" in caplog.text

    caplog.clear()
    _plant_orphans(root, [("ef", "three")])
    with caplog.at_level("INFO", logger="repro.parallel.cache"):
        cache._sweep_orphans(0.0)
    assert cache.orphans_swept == 3  # lifetime total keeps accumulating
    assert "swept 1 orphaned" in caplog.text
    assert "swept 3" not in caplog.text

    # A sweep that finds nothing stays silent.
    caplog.clear()
    with caplog.at_level("INFO", logger="repro.parallel.cache"):
        cache._sweep_orphans(0.0)
    assert "swept" not in caplog.text


# -- single-flight ------------------------------------------------------------

KEY = "ab" * 32


def test_cold_single_flight_reads_the_entry_once(tmp_path):
    """One cold call is one disk read (one miss), then one execution."""
    cache = ResultCache(tmp_path / "c")
    payload, executed = cache.single_flight(KEY, lambda: {"v": 1})
    assert (payload, executed) == ({"v": 1}, True)
    assert cache.misses == 1 and cache.hits == 0
    assert not cache.claim_path_for(KEY).exists()
    assert cache.get(KEY) == {"v": 1}


def test_entry_published_just_before_our_claim_is_read_not_recomputed(tmp_path):
    """A sibling that publishes and releases between a caller's read and
    its claim must not cost a second execution."""
    cache = ResultCache(tmp_path / "c")
    sibling = ResultCache(tmp_path / "c")
    claim = cache.try_claim

    def sibling_finishes_first(key):
        sibling.put(key, {"v": "sibling"})
        return claim(key)

    cache.try_claim = sibling_finishes_first
    payload, executed = cache.single_flight(KEY, lambda: {"v": "here"})
    assert (payload, executed) == ({"v": "sibling"}, False)
    assert not cache.claim_path_for(KEY).exists()


def test_claim_under_construction_is_not_stale_until_old(tmp_path):
    """A claim exists, empty, between its owner's ``O_EXCL`` create and
    its body write: a sibling must not steal it as corrupt, only once it
    is older than the staleness bound."""
    cache = ResultCache(tmp_path / "c")
    path = cache.claim_path_for(KEY)
    path.parent.mkdir(parents=True)
    path.write_text("")
    assert not cache._claim_is_stale(path, 3600.0)
    assert not cache.try_claim(KEY)
    assert cache._claim_is_stale(path, 0.0)
