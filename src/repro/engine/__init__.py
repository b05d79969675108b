"""The pluggable engine subsystem: registry, cache, runner, results.

See DESIGN.md for the architecture.  In short:

* :mod:`repro.engine.base` — the :class:`UnrealizabilityEngine` protocol;
* :mod:`repro.engine.registry` — ``@register_engine`` and name-based lookup
  (the *only* way consumers construct engines);
* :mod:`repro.engine.cache` — process-wide memoization of grammar
  normalization and GFA equation construction;
* :mod:`repro.engine.results` — JSONL persistence and stable-field
  comparison of experiment rows;
* :mod:`repro.engine.runner` — the batched experiment runner with a
  two-sided timeout policy, in-process or fanned out on the solve fabric;
* :mod:`repro.engine.supervisor` — the supervised solve fabric, the one
  place the library starts processes (imported on first use, not here).
"""

from repro.engine.base import EngineConfigMixin, UnrealizabilityEngine
from repro.engine.registry import (
    UnknownEngineError,
    create_engine,
    engine_names,
    get_engine_class,
    register_engine,
)
from repro.engine.cache import GfaCache, cache_stats, clear_cache, get_cache
from repro.engine.results import (
    ResultsStore,
    render_stable,
    stable_fingerprint,
    stable_view,
)
from repro.engine.runner import ExperimentRunner, Task, apply_timeout_policy

__all__ = [
    "UnrealizabilityEngine",
    "EngineConfigMixin",
    "register_engine",
    "create_engine",
    "engine_names",
    "get_engine_class",
    "UnknownEngineError",
    "GfaCache",
    "get_cache",
    "clear_cache",
    "cache_stats",
    "ResultsStore",
    "stable_view",
    "stable_fingerprint",
    "render_stable",
    "ExperimentRunner",
    "Task",
    "apply_timeout_policy",
]
