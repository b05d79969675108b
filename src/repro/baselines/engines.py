"""The registered engines: Alg. 2's CEGIS loop around five checks (§8).

Every tool the evaluation compares runs the same CEGIS loop
(:class:`~repro.unreal.cegis.NaySolver`); they differ only in the
unrealizability check the loop runs each round.  :class:`NayEngine` holds
the shared budgets and the one ``solve``; each registered subclass defines
only ``check``.  Registration order is the portfolio's default pool and its
tie order: naySL, nayHorn, nope, nayInt, nayFin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.baselines.nope import ReachabilityProgram, build_reachability_program
from repro.domains.registry import create_domain
from repro.engine.base import EngineConfigMixin
from repro.engine.registry import register_engine
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.unreal.approximate import check_examples_abstract
from repro.unreal.cegis import NayConfig, NaySolver, check_exact
from repro.unreal.certificates import build_chc_certificate
from repro.unreal.result import CegisResult, CheckResult


@dataclass
class NayEngine(EngineConfigMixin):
    """One engine: Alg. 2's CEGIS loop around the subclass's ``check``."""

    seed: Optional[int] = None
    timeout_seconds: Optional[float] = None
    max_iterations: int = 40
    #: Grammar reduction applied before equation building: ``"off"``,
    #: ``"reduce"`` (language-preserving merge of equal nonterminals) or
    #: ``"oe"`` (observational-equivalence merge on the current example set).
    prune: str = "off"

    @property
    def name(self) -> str:
        return self.registry_name  # type: ignore[attr-defined]

    def cegis_check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        """The check each CEGIS round runs (default: :meth:`check`)."""
        return self.check(problem, examples)  # type: ignore[attr-defined]

    def solve(
        self, problem: SyGuSProblem, initial_examples: Optional[ExampleSet] = None
    ) -> CegisResult:
        solver = NaySolver(
            NayConfig(
                seed=self.seed,
                timeout_seconds=self.timeout_seconds,
                max_iterations=self.max_iterations,
                checker=self.cegis_check,
            )
        )
        return solver.solve(problem, initial_examples)


@register_engine("naySL")
@dataclass
class NaySL(NayEngine):
    """The exact check over semi-linear sets (§5-§7)."""

    def check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        return check_exact(problem, examples, prune=self.prune)


@register_engine("nayHorn")
@dataclass
class NayHorn(NayEngine):
    """The approximate check over the GFA equations (§4.3, §7).

    The paper encodes the GFA equations as constrained Horn clauses
    (:mod:`repro.horn.clauses`) solved by Spacer; here :meth:`check` solves
    the same GFA problem with the sound ``numeric`` abstract domain of
    :mod:`repro.unreal.approximate` and ships the fixpoint as a model of
    those clauses (see DESIGN.md for the substitution).  Verdicts are sound:
    ``UNREALIZABLE`` is always correct, and realizable/undetermined
    instances surface as ``UNKNOWN``/``TIMEOUT``.
    """

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

    def cegis_check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        """The CEGIS rounds ship the abstract fixpoint itself, not its CHC model."""
        return check_examples_abstract(problem, examples, prune=self.prune)


@register_engine("nope")
@dataclass
class Nope(NayEngine):
    """The NOPE baseline: its program-reachability encoding, checked as nayHorn."""

    def check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        """One unrealizability check, decided as nayHorn decides it."""
        return NayHorn(prune=self.prune).check(problem, examples)

    def program(self, problem: SyGuSProblem, examples: ExampleSet) -> ReachabilityProgram:
        """The reachability program (for inspection and tests)."""
        return build_reachability_program(
            problem.grammar, examples, problem.spec.description or "spec"
        )


@register_engine("nayInt")
@dataclass
class NayInt(NayEngine):
    """NAY over per-example integer boxes (no ILP calls in the check)."""

    def check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        return check_examples_abstract(
            problem, examples, domain=create_domain("interval"), prune=self.prune
        )


@register_engine("nayFin")
@dataclass
class NayFin(NayEngine):
    """NAY over exact finite behavior sets (two-sided below the cap).

    ``cap`` and ``max_examples`` pass through to
    ``powerset(cap=..., max_examples=...)``: the former bounds the behavior
    sets (widening to TOP), the latter the example count the domain attempts
    before bailing out ``UNKNOWN``.  ``None`` keeps the domain defaults.
    """

    cap: Optional[int] = None
    max_examples: Optional[int] = None

    def check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        knobs = {"cap": self.cap, "max_examples": self.max_examples}
        # A fresh domain per check: the powerset domain carries per-check
        # exactness state.
        domain = create_domain(
            "powerset",
            **{key: int(value) for key, value in knobs.items() if value is not None},
        )
        return check_examples_abstract(problem, examples, domain=domain, prune=self.prune)
