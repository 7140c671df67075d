"""Versioned result cache: O(1) answers for repeated queries.

Entries are keyed on ``(graph_version, query_class, canonical params)``.
The graph version is monotonically bumped by every mutation batch, so an
entry can never serve a stale answer: a lookup at the current version
misses by construction after any update, and superseded entries are
dropped eagerly by :meth:`ResultCache.invalidate_before`. Within a
version, eviction is LRU.

Query parameters are canonicalized structurally (dicts order-free,
lists/sets frozen); values the canonicalizer does not understand (e.g. a
pattern :class:`~repro.graph.digraph.Graph`) raise :class:`Uncacheable`
and the service simply runs those queries uncached.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable


class Uncacheable(Exception):
    """A query parameter value has no canonical cache form."""


_SCALARS = (str, int, float, bool, bytes, type(None))


def freeze(value: object) -> Hashable:
    """Canonical hashable form of a query parameter value.

    Dicts canonicalize order-free; lists/tuples keep order; sets sort.
    Unknown types raise :class:`Uncacheable` rather than guessing.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        items = tuple(
            (k, freeze(v)) for k, v in sorted(value.items(), key=repr)
        )
        return ("dict", items)
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(freeze(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((freeze(v) for v in value), key=repr)))
    raise Uncacheable(f"cannot canonicalize {type(value).__name__} value")


def cache_key(
    version: int, query_class: str, params: dict | None
) -> tuple:
    """The cache key for one query at one graph version."""
    return (version, query_class, freeze(params or {}))


@dataclass
class CacheEntry:
    """One cached assembled answer with its provenance."""

    answer: object
    version: int
    query_class: str
    #: Simulated cost of the engine run that produced the answer.
    cost: float
    #: Original query params (needed to re-run the query when the entry
    #: is selected for re-warming after a version bump); None = unknown.
    params: dict | None = None
    #: Lookup hits served by this entry (re-warm hotness signal).
    hits: int = 0


@dataclass
class CacheStats:
    """Counter snapshot for the service report."""

    hits: int = 0
    misses: int = 0
    evicted_lru: int = 0
    invalidated: int = 0
    uncacheable: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """Counters plus the derived hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evicted_lru": self.evicted_lru,
            "invalidated": self.invalidated,
            "uncacheable": self.uncacheable,
        }


class ResultCache:
    """LRU cache of assembled answers, keyed by graph version.

    Args:
        capacity: maximum number of entries (LRU beyond it).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self._last_invalidated: list[CacheEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def contains(self, key: tuple) -> bool:
        """Whether ``key`` is present (no stats or LRU side effects)."""
        return key in self._entries

    # ------------------------------------------------------------------
    def get(self, key: tuple) -> CacheEntry | None:
        """The entry under ``key``, refreshing its LRU position."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        entry.hits += 1
        return entry

    def put(self, key: tuple, entry: CacheEntry) -> None:
        """Store ``entry``, evicting the LRU tail beyond capacity."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evicted_lru += 1

    def invalidate_before(self, version: int) -> int:
        """Drop every entry cached at a graph version below ``version``.

        Called by the service right after a mutation batch bumps the
        version: the keys could never match again, so holding them would
        only displace live entries. The dropped entries are stashed so
        :meth:`hottest_invalidated` can pick re-warm candidates.
        """
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.version < version
        ]
        self._last_invalidated = [self._entries[key] for key in stale]
        for key in stale:
            del self._entries[key]
        self.stats.invalidated += len(stale)
        return len(stale)

    def hottest_invalidated(self, n: int | None = None) -> list[CacheEntry]:
        """The most-hit entries dropped by the last invalidation.

        Only entries that recorded their query params (and at least one
        hit — cold entries are not worth pre-paying for) qualify; ties
        break toward most recently used (insertion order is LRU order).
        ``n`` caps the list (None = all qualifying entries).
        """
        candidates = [
            entry
            for entry in self._last_invalidated
            if entry.params is not None and entry.hits > 0
        ]
        candidates.sort(key=lambda entry: entry.hits, reverse=True)
        return candidates if n is None else candidates[:n]

    def clear(self) -> None:
        """Drop everything (stats are kept)."""
        self._entries.clear()
