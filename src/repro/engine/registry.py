"""Decorator-based registry of unrealizability engines.

Engines register themselves at class-definition time::

    @register_engine("naySL")
    @dataclass
    class NaySL(NayEngine):
        ...

and every consumer resolves them by name through :func:`create_engine`; the
CLI, the experiment harness and the pytest benchmarks share this one lookup
path, so adding an engine is one decorated subclass in
:mod:`repro.baselines.engines`.  Registration order is the order
:func:`engine_names` lists.

The registry stores classes, not instances: :func:`create_engine` builds a
fresh engine per call, passing knobs straight to the dataclass constructor.
Unknown knobs fail with ``TypeError`` from the constructor; unknown names
fail with :class:`UnknownEngineError` listing the available engines.

Runnable example:

    >>> from repro.engine.registry import create_engine, engine_names
    >>> sorted(engine_names())
    ['nayFin', 'nayHorn', 'nayInt', 'naySL', 'nope']
    >>> create_engine("naySL", seed=7).seed
    7
    >>> create_engine("naySL").check  # doctest: +ELLIPSIS
    <bound method NaySL.check of NaySL(...)>

(The reserved multi-engine strategies ``"portfolio"`` and ``"staged"`` are
*not* registry entries — :mod:`repro.api.facade` dispatches them before the
registry is consulted; :meth:`repro.api.Solver.available_engines` lists
both views.)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Type, TypeVar

from repro.engine.base import UnrealizabilityEngine
from repro.utils.errors import ReproError

EngineClass = TypeVar("EngineClass", bound=type)

_REGISTRY: Dict[str, type] = {}


class UnknownEngineError(ReproError):
    """Raised when an engine name is not present in the registry."""


def register_engine(name: str) -> Callable[[EngineClass], EngineClass]:
    """Class decorator adding the engine to the registry under ``name``."""

    def decorator(cls: EngineClass) -> EngineClass:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ReproError(
                f"engine name {name!r} already registered by {existing.__name__}"
            )
        _REGISTRY[name] = cls
        cls.registry_name = name  # type: ignore[attr-defined]
        return cls

    return decorator


def _ensure_builtin_engines() -> None:
    """Import the built-in engine modules so their decorators have run."""
    import repro.baselines  # noqa: F401  (registration side effect)


def engine_names() -> List[str]:
    """The registered engine names, in registration order."""
    _ensure_builtin_engines()
    return list(_REGISTRY)


def get_engine_class(name: str) -> type:
    _ensure_builtin_engines()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise UnknownEngineError(
            f"unknown engine {name!r}; registered engines: {known}"
        ) from None


def create_engine(name: str, **knobs: object) -> UnrealizabilityEngine:
    """Instantiate the engine registered under ``name`` with the given knobs."""
    return get_engine_class(name)(**knobs)
