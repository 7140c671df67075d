"""Unit tests for the versioned result cache."""

import pytest

from repro.service.cache import (
    CacheEntry,
    ResultCache,
    Uncacheable,
    cache_key,
    freeze,
    hottest,
)


def _entry(version=1, answer="a"):
    return CacheEntry(
        answer=answer,
        version=version,
        query_class="sssp",
        cost=1.0,
    )


# ------------------------------------------------------------ canonical keys
def test_freeze_dict_is_order_free():
    assert freeze({"a": 1, "b": 2}) == freeze({"b": 2, "a": 1})


def test_freeze_distinguishes_list_order_but_not_set_order():
    assert freeze([1, 2]) != freeze([2, 1])
    assert freeze({1, 2}) == freeze({2, 1})


def test_freeze_nested_params():
    key1 = cache_key(3, "sssp", {"source": 0, "opts": {"x": [1, 2]}})
    key2 = cache_key(3, "sssp", {"opts": {"x": [1, 2]}, "source": 0})
    assert key1 == key2
    assert hash(key1) == hash(key2)


def test_freeze_unknown_type_raises_uncacheable():
    class Blob:
        pass

    with pytest.raises(Uncacheable):
        cache_key(1, "sim", {"pattern": Blob()})


def test_version_is_part_of_the_key():
    assert cache_key(1, "sssp", {"source": 0}) != cache_key(
        2, "sssp", {"source": 0}
    )


# ------------------------------------------------------------------ LRU
def test_get_put_roundtrip_counts_hits_and_misses():
    cache = ResultCache(capacity=4)
    key = cache_key(1, "sssp", {"source": 0})
    assert cache.get(key) is None
    cache.put(key, _entry())
    assert cache.get(key).answer == "a"
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5


def test_lru_evicts_least_recently_used():
    cache = ResultCache(capacity=2)
    k1, k2, k3 = (cache_key(1, "sssp", {"source": s}) for s in (1, 2, 3))
    cache.put(k1, _entry())
    cache.put(k2, _entry())
    cache.get(k1)  # refresh k1; k2 becomes the LRU tail
    cache.put(k3, _entry())
    assert cache.get(k1) is not None
    assert cache.get(k2) is None
    assert cache.stats.evicted_lru == 1


def test_invalidate_before_drops_only_stale_versions():
    cache = ResultCache(capacity=8)
    old = cache_key(1, "sssp", {"source": 0})
    new = cache_key(2, "sssp", {"source": 0})
    cache.put(old, _entry(version=1))
    cache.put(new, _entry(version=2))
    assert cache.invalidate_before(2) == [_entry(version=1)]
    assert len(cache) == 1
    assert cache.get(new) is not None
    assert cache.stats.invalidated == 1


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        ResultCache(capacity=0)


def test_contains_has_no_side_effects():
    cache = ResultCache(capacity=2)
    key = cache_key(1, "sssp", {"source": 0})
    assert not cache.contains(key)
    cache.put(key, _entry())
    assert cache.contains(key)
    assert cache.stats.hits == 0 and cache.stats.misses == 0
    assert cache._entries[key].hits == 0


# ------------------------------------------------------------ re-warm picks
def _hot_cache(*hits):
    """A cache holding one sssp entry per source, put in source order,
    each looked up ``hits[source]`` times in that order."""
    cache = ResultCache(capacity=8)
    for source, n in enumerate(hits):
        key = cache_key(1, "sssp", {"source": source})
        cache.put(key, CacheEntry("a", 1, "sssp", 1.0, {"source": source}))
        for _ in range(n):
            cache.get(key)
    return cache


def test_hottest_orders_by_hits_and_filters_cold():
    cache = _hot_cache(2, 5, 0)
    # An entry without params can never be re-run: must not qualify.
    paramless = cache_key(1, "cc", {})
    cache.put(paramless, _entry())
    cache.get(paramless)

    dropped = cache.invalidate_before(2)
    assert len(dropped) == 4
    picks = hottest(dropped)
    assert [e.params for e in picks] == [{"source": 1}, {"source": 0}]


def test_hottest_ties_go_to_the_least_recently_used_entry():
    """``invalidate_before`` returns entries in LRU order and the sort
    is stable: of two equally hot entries the older one ranks first."""
    cache = _hot_cache(2, 1, 2)  # source 2 is the most recently used
    picks = hottest(cache.invalidate_before(2))
    assert [e.params["source"] for e in picks] == [0, 2, 1]


def test_invalidate_before_returns_only_this_call_s_entries():
    cache = _hot_cache(1)
    assert len(cache.invalidate_before(2)) == 1
    assert cache.invalidate_before(3) == []  # nothing stale now


# ------------------------------------------------- service-level re-warm
def test_service_rewarm_restores_hit_rate_across_updates():
    from repro.engineapi.session import Session
    from repro.graph.generators import road_network
    from repro.service import GrapeService

    def build(rewarm_hottest):
        graph = road_network(5, 5, seed=3, removal_prob=0.0)
        session = Session(graph, num_workers=2, partition="bfs")
        return GrapeService(session, rewarm_hottest=rewarm_hottest)

    def workload(service):
        for _ in range(3):
            service.query("sssp", {"source": 0})  # hot
        service.query("sssp", {"source": 7})  # lukewarm
        service.apply_updates(edges=[(0, 24, 2.5)], deletes=[(0, 1)])
        return service.query("sssp", {"source": 0})

    cold = build(rewarm_hottest=0)
    assert not workload(cold).from_cache  # invalidated, never re-warmed

    warm = build(rewarm_hottest=1)
    assert workload(warm).from_cache  # hottest entry was kept warm
    assert (
        warm._cache.stats.hit_rate > cold._cache.stats.hit_rate
    )
