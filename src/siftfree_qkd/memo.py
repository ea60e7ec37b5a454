"""Bounded memo tables for results that are immutable once built.

Every object the engine builds is frozen with read-only arrays, so one
instance can be handed to every caller that asks for the same thing. A
table holds such objects under a fixed limit on their total cost (an entry
count, or a size where entries differ widely) and evicts the least
recently used entries to stay within it, so a long run cannot grow it.

`memoized` is a plain function wrapper, not `functools.lru_cache`: the
result is an ordinary Python function, which keeps it visible to tools that
instrument the package's functions.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["MemoStats", "MemoTable", "memoized", "CONSTRUCTOR_MEMO_ENTRIES"]

# Entry limit of each memoized constructor. Keys are small argument tuples
# (dimension, exponents, labels), so a session uses a handful of them; the
# limit only matters to a caller that keeps inventing new arguments.
CONSTRUCTOR_MEMO_ENTRIES = 256


@dataclass(frozen=True)
class MemoStats:
    """Counters of one memo table since the process started.

    hits/misses count lookups; evictions counts entries dropped to stay
    within the limit; entries and held are the current entry count and
    their total cost.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    held: int


class MemoTable:
    """Least-recently-used map whose entries' total cost stays within `limit`."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("memo limit must be >= 1")
        self.limit = limit
        self._entries: OrderedDict = OrderedDict()  # key -> (value, cost)
        self._held = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key):
        """The value stored under `key`, or None; counts a hit or a miss."""
        with self._lock:
            slot = self._entries.get(key)
            if slot is None:
                self._misses += 1
                return None
            self._hits += 1
            self._entries.move_to_end(key)
            return slot[0]

    def put(self, key, value, cost: int = 1) -> None:
        """Store `value`; one costing more than the whole limit is not kept."""
        if cost > self.limit:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._held -= old[1]
            self._entries[key] = (value, cost)
            self._held += cost
            while self._held > self.limit:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._held -= dropped
                self._evictions += 1

    def stats(self) -> MemoStats:
        with self._lock:
            return MemoStats(
                self._hits, self._misses, self._evictions, len(self._entries), self._held
            )


def memoized(fn):
    """Cache `fn`'s results by argument, up to CONSTRUCTOR_MEMO_ENTRIES.

    Only for functions whose results are immutable: every caller passing
    equal arguments receives the same object. Calls with unhashable
    arguments (labels given as a list, say) are computed afresh. The
    wrapper's `stats()` returns its table's MemoStats, so its misses count
    the results really built.
    """
    table = MemoTable(CONSTRUCTOR_MEMO_ENTRIES)

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
        try:
            value = table.get(key)
        except TypeError:  # unhashable argument
            return fn(*args, **kwargs)
        if value is None:
            value = fn(*args, **kwargs)
            table.put(key, value)
        return value

    cached.stats = table.stats
    return cached
