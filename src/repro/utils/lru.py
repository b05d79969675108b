"""A bounded, locked LRU table with hit/miss counters.

The semi-linear memos (:mod:`repro.domains.semilinear`) and the logic
core's query and formula caches (:mod:`repro.logic.solver`) are all one of
these.  The bound keeps a long-lived ``serve`` process from accumulating
every answer it ever computed.  A lock serialises the LRU bookkeeping:
``repro-nay serve`` solves on ThreadingHTTPServer request threads, and an
unlocked ``move_to_end`` can race an eviction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable


class BoundedLru:
    """At most ``max_entries`` entries, least recently used evicted first.

    ``None`` is never a stored value: :meth:`get` returns it for a miss.
    """

    __slots__ = ("max_entries", "hits", "misses", "_table", "_lock")

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._table: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable):
        with self._lock:
            value = self._table.get(key)
            if value is not None:
                self._table.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return value

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._table[key] = value
            self._table.move_to_end(key)
            while len(self._table) > self.max_entries:
                self._table.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._table.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._table),
                "hits": self.hits,
                "misses": self.misses,
            }
