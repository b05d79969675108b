"""Process-wide weak intern tables (hash-consing) for immutable values.

The hot paths of the GFA solvers allocate enormous numbers of small
immutable objects — integer/Boolean vectors, linear sets, terms — and then
compare them structurally over and over (fixpoint detection, subsumption,
observational-equivalence caches).  Hash-consing routes every construction
through a per-class weak table so that structurally equal values are the
*same* object: equality gets an ``is`` fast path, hashes are computed once,
and downstream memo tables (the semi-linear simplification cache, the
worklist solver's change fingerprints) can key on identity.

Tables hold weak references only, so interning never extends a value's
lifetime; once the last strong reference dies the entry evaporates.  Lookups
are not locked: under CPython's GIL the individual dict operations are
atomic, and the worst case of a race is two structurally equal instances of
which one wins the table — callers therefore must keep a structural
``__eq__`` fallback behind their identity fast path.
"""

from __future__ import annotations

import weakref
from typing import Dict, Hashable, Optional, TypeVar

Value = TypeVar("Value")


class Interner:
    """One weak get-or-insert table, with hit/miss counters.

    The intended usage pattern is from an ``__new__``::

        def __new__(cls, ...):
            key = <canonical hashable key>
            cached = _TABLE.get(key)
            if cached is not None:
                return cached
            self = object.__new__(cls)
            ...initialise slots...
            return _TABLE.add(key, self)
    """

    __slots__ = ("name", "hits", "misses", "_table")

    def __init__(self, name: str):
        self.name = name
        self.hits = 0
        self.misses = 0
        self._table: "weakref.WeakValueDictionary[Hashable, object]" = (
            weakref.WeakValueDictionary()
        )

    def get(self, key: Hashable) -> Optional[object]:
        value = self._table.get(key)
        if value is not None:
            self.hits += 1
        return value

    def add(self, key: Hashable, value: Value) -> Value:
        self.misses += 1
        self._table[key] = value
        return value

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        """Drop all entries (testing helper).

        Live objects remain valid — they just stop being the canonical
        representative, so later constructions of equal values allocate fresh
        instances and the identity fast path falls back to structural
        equality.
        """
        self._table.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {"live": len(self._table), "hits": self.hits, "misses": self.misses}


#: Registry of every interner created through :func:`interner`, for stats.
_REGISTRY: Dict[str, Interner] = {}


def interner(name: str) -> Interner:
    """Create (or fetch) the process-wide interner with the given name."""
    existing = _REGISTRY.get(name)
    if existing is None:
        existing = _REGISTRY[name] = Interner(name)
    return existing


def intern_stats() -> Dict[str, Dict[str, int]]:
    """Live-entry and hit/miss counts for every intern table."""
    return {name: table.stats() for name, table in sorted(_REGISTRY.items())}
