"""NayHorn: the approximate (Horn-clause) configuration of NAY (§4.3, §7)."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.engine.base import EngineConfigMixin
from repro.engine.registry import register_engine
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.unreal.approximate import check_examples_abstract
from repro.unreal.cegis import NayConfig, NaySolver
from repro.unreal.certificates import build_chc_certificate
from repro.unreal.result import CegisResult, CheckResult


@register_engine("nayHorn")
@dataclass
class NayHorn(EngineConfigMixin):
    """NAY in Horn mode: same CEGIS loop, approximate unrealizability check.

    The paper encodes the GFA equations as constrained Horn clauses
    (:mod:`repro.horn.clauses`) solved by Spacer; here :meth:`check` solves
    the same GFA problem with the sound ``numeric`` abstract domain of
    :mod:`repro.unreal.approximate` and ships the fixpoint as a model of
    those clauses (see DESIGN.md for the substitution).  Verdicts are sound:
    ``UNREALIZABLE`` is always correct, and realizable/undetermined
    instances surface as ``UNKNOWN``/``TIMEOUT``.
    """

    seed: Optional[int] = None
    timeout_seconds: Optional[float] = None
    max_iterations: int = 40
    prune: str = "off"

    @property
    def name(self) -> str:
        return "nayHorn"

    def _solver(self) -> NaySolver:
        return NaySolver(
            NayConfig(
                mode="horn",
                seed=self.seed,
                timeout_seconds=self.timeout_seconds,
                max_iterations=self.max_iterations,
                prune=self.prune,
            )
        )

    def solve(
        self, problem: SyGuSProblem, initial_examples: Optional[ExampleSet] = None
    ) -> CegisResult:
        return self._solver().solve(problem, initial_examples)

    def check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        start = time.monotonic()
        result = check_examples_abstract(problem, examples, prune=self.prune)
        if result.certificate is not None:
            # Re-shape the abstract-fixpoint certificate as a CHC model (one
            # clause per production); unproductive ones pass unchanged.
            chc = build_chc_certificate(problem, result.certificate)
            if chc is not None:
                result.certificate = chc
        result.elapsed_seconds = time.monotonic() - start
        return result
