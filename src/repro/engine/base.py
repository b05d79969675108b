"""The engine abstraction shared by every unrealizability tool.

The paper's evaluation (§8) compares three *engines* — exact semi-linear
naySL, approximate nayHorn, and the NOPE program-reachability baseline — on
the same benchmark suites.  Historically each consumer (the CLI, the
experiment harness, the pytest benchmarks) wired the three together with its
own ad-hoc factory; :class:`UnrealizabilityEngine` is the single protocol
they all program against now, and :mod:`repro.engine.registry` is the single
place engines are looked up by name.

An engine is any object with

* ``name``            — the registry/display name (``"naySL"``, ...);
* ``check(problem, examples)`` — one unrealizability check over a fixed
  example set, returning a :class:`~repro.unreal.result.CheckResult`;
* ``solve(problem, initial_examples=None)`` — the full CEGIS loop,
  returning a :class:`~repro.unreal.result.CegisResult`;
* ``configure(**knobs)`` — a *new* engine with the given knobs replaced
  (engines are immutable values, so configuring never aliases state).

The built-in engines are plain frozen-style dataclasses, which makes
``configure`` a ``dataclasses.replace``.  Engines never cross a process
boundary: solve-fabric workers (:mod:`repro.engine.supervisor`) receive wire
requests and build their own engines through the registry.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Protocol, runtime_checkable

from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.unreal.result import CegisResult, CheckResult


@runtime_checkable
class UnrealizabilityEngine(Protocol):
    """Structural interface every registered engine satisfies."""

    @property
    def name(self) -> str: ...

    def check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult: ...

    def solve(
        self, problem: SyGuSProblem, initial_examples: Optional[ExampleSet] = None
    ) -> CegisResult: ...

    def configure(self, **knobs: object) -> "UnrealizabilityEngine": ...


class EngineConfigMixin:
    """``configure`` for dataclass engines: replace knobs, return a copy."""

    def configure(self, **knobs: object):
        try:
            return dataclasses.replace(self, **knobs)  # type: ignore[type-var]
        except TypeError as error:
            raise ValueError(
                f"unknown knob for engine {getattr(self, 'name', type(self).__name__)!r}: {error}"
            ) from None
