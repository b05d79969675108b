"""Per-request work counters: the one channel into ``solver_stats``.

A scope opened with :func:`recording` collects what the layers below it
report: :func:`count` adds work counters (the logic core's search
statistics, the CEGIS enumerator's dedup count) and :func:`note` sets sizes
and settings (``grammar_*`` after pruning, ``powerset_*`` knobs), the last
write winning.  :func:`repro.api.facade.run_engine` opens one scope per
engine run and reports it as the response's ``solver_stats``.

The scope lives in a context variable, so each thread (every ``serve``
handler) and each fabric worker counts into its own request only.  An inner
scope hides the outer one; with no scope open both calls do nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Mapping, Optional

_SCOPE: ContextVar[Optional[Dict[str, int]]] = ContextVar(
    "repro_stats_scope", default=None
)

#: Key prefixes of the entries :func:`note` sets.  Several runs' stats fold
#: into one (the staged ladder's stages) by keeping the last run's value of
#: these and adding up every other entry.
NOTED = ("grammar_", "powerset_")


def count(values: Mapping[str, int]) -> None:
    """Add ``values`` into the open scope."""
    scope = _SCOPE.get()
    if scope is not None:
        for key, value in values.items():
            scope[key] = scope.get(key, 0) + value


def note(values: Mapping[str, int]) -> None:
    """Set ``values`` in the open scope (sizes and settings, not work)."""
    scope = _SCOPE.get()
    if scope is not None:
        scope.update(values)


@contextmanager
def recording(*keys: str) -> Iterator[Dict[str, int]]:
    """Open a scope whose ``keys`` start at zero; yields its live dict."""
    scope: Dict[str, int] = dict.fromkeys(keys, 0)
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)
