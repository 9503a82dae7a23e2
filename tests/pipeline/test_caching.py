"""The capped LRU memo and the runner's clear_caches()."""

import pytest

from repro.experiments import runner
from repro.pipeline import manager
from repro.utils.caching import LRUCache


def test_lru_evicts_least_recently_used():
    cache = LRUCache(maxsize=2)
    cache["a"] = 1
    cache["b"] = 2
    assert cache["a"] == 1  # refreshes "a"
    cache["c"] = 3  # evicts "b"
    assert "b" not in cache
    assert set(cache) == {"a", "c"}
    assert cache.evictions == 1


def test_lru_rejects_bad_maxsize():
    with pytest.raises(ValueError):
        LRUCache(maxsize=0)
    unbounded = LRUCache(maxsize=None)
    for i in range(1000):
        unbounded[i] = i
    assert len(unbounded) == 1000


def test_runner_memos_are_capped_and_clearable(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    runner.clear_caches()
    assert all(
        cache.maxsize is not None
        for cache in (runner._memo, manager._prefixes, runner._inputs)
    )
    runner.build_program("cholesky", "seq")
    assert len(manager._prefixes) == 1
    runner.clear_caches()
    assert len(manager._prefixes) == 0
