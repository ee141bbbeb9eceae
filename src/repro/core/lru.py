"""Bounded LRU mapping for the framework's signature caches.

The serving caches (:class:`repro.core.framework.NdftFramework`) are
keyed by content-addressed signatures, so a service facing adversarial
problem variety would otherwise grow them without bound.  ``LruCache``
is a small insertion-ordered mapping with least-recently-used eviction
and hit/miss/eviction counters: eviction is purely a capacity decision —
an evicted entry is re-derived on the next miss with an identical value,
so results never change (the framework's tests assert exactly that).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

from repro.errors import positive_int


class LruCache:
    """A dict with LRU eviction and telemetry counters.

    ``maxsize=None`` means unbounded (never evicts).  Recency is updated
    on every :meth:`get` hit and :meth:`put`, so the evicted key is the
    one untouched for longest.  Counters (``hits``/``misses``/
    ``evictions``) survive :meth:`clear` — the framework drops cache
    *contents* on registry changes but keeps its telemetry.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int | None = None):
        if maxsize is not None:
            maxsize = positive_int(maxsize, "cache size")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # dicts preserve insertion order; move-to-end on hit makes the
        # leftmost key the LRU victim.
        self._data: dict[Hashable, Any] = {}

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Counted lookup: bumps hits/misses and refreshes recency."""
        try:
            value = self._data.pop(key)
        except KeyError:
            self.misses += 1
            return default
        self._data[key] = value  # re-insert at the MRU end
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._data.pop(key, None)
        self._data[key] = value
        if self.maxsize is not None and len(self._data) > self.maxsize:
            victim = next(iter(self._data))
            del self._data[victim]
            self.evictions += 1

    def lookup_many(
        self,
        keys: Sequence[Hashable],
        weights: Sequence[int],
        derive: Callable[[int], Any],
    ) -> list[Any]:
        """Get-or-derive for a batch: one value per key, in key order.

        ``keys[i]`` stands for ``weights[i]`` jobs.  Every distinct key
        is probed before any miss is derived, so hits refresh recency
        before the fills evict: a batch with more distinct keys than
        ``maxsize`` evicts only the overflow, instead of turning the
        cache into a cyclic scan that misses every key.  Misses are then
        derived with ``derive(i)`` (``i`` = the key's first position)
        and inserted in first-occurrence order.

        Counters keep their per-job meaning: the first job of an absent
        key is one miss, every other job of every key is a hit — what
        one :meth:`get` per job would count on a batch that fits."""
        data = self._data
        values: list[Any] = [None] * len(keys)
        first: dict[Hashable, int] = {}
        missing: list[int] = []
        hits = 0
        for i, key in enumerate(keys):
            if key in first:
                hits += weights[i]
                continue
            first[key] = i
            try:
                value = data.pop(key)
            except KeyError:
                missing.append(i)
                hits += weights[i] - 1
                continue
            data[key] = value  # re-insert at the MRU end
            values[i] = value
            hits += weights[i]
        self.hits += hits
        self.misses += len(missing)
        for i in missing:
            values[i] = derive(i)
            self.put(keys[i], values[i])
        if len(first) < len(keys):
            values = [values[first[key]] for key in keys]
        return values

    def items(self) -> list[tuple[Hashable, Any]]:
        """Every (key, value) pair in LRU-to-MRU order, without touching
        recency or counters — what cache snapshots persist."""
        return list(self._data.items())

    def clear(self) -> None:
        """Drop every entry; counters are preserved."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LruCache):
            return self._data == other._data
        if isinstance(other, dict):
            return self._data == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LruCache(maxsize={self.maxsize}, len={len(self._data)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
