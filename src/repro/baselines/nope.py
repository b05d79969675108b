"""NOPE: the prior-work baseline (Hu et al., CAV 2019).

NOPE proves unrealizability by building a nondeterministic *recursive
program* from the grammar — one procedure per nonterminal, returning the
output vector of a nondeterministically chosen term — and asking a software
verifier (SeaHorn, built on Spacer) whether an assertion encoding the
specification can be violated.  The reduction is described in §9 and in the
original NOPE paper.

This reimplementation constructs the same program encoding explicitly
(:class:`ReachabilityProgram`) for inspection, but without SeaHorn it decides
the query as :class:`~repro.baselines.nay_horn.NayHorn` does: one ``numeric``
abstract fixpoint over the GFA equations.  Verdicts and certificates are
therefore nayHorn's.  The paper's finding that NOPE solves the same
benchmarks about 19x slower than nayHorn (§8.1) is cited, not measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines.nay_horn import NayHorn
from repro.engine.base import EngineConfigMixin
from repro.engine.registry import register_engine
from repro.grammar.rtg import Nonterminal, RegularTreeGrammar
from repro.grammar.transforms import normalize_for_gfa
from repro.horn.clauses import HornSystem, encode_gfa_as_horn
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.unreal.cegis import NayConfig, NaySolver
from repro.unreal.result import CegisResult, CheckResult


@dataclass
class Procedure:
    """One nondeterministic procedure of the reachability program."""

    name: str
    nonterminal: Nonterminal
    branches: List[str] = field(default_factory=list)

    def render(self) -> str:
        body = "\n".join(f"  | {branch}" for branch in self.branches)
        return f"proc {self.name}() returns (v: int^n) :=\n{body}"


@dataclass
class ReachabilityProgram:
    """The nondeterministic recursive program NOPE builds from a grammar."""

    procedures: List[Procedure]
    assertion: str

    def render(self) -> str:
        rendered = "\n\n".join(procedure.render() for procedure in self.procedures)
        return f"{rendered}\n\nassert {self.assertion}\n"


def build_reachability_program(
    grammar: RegularTreeGrammar, examples: ExampleSet, spec_description: str
) -> ReachabilityProgram:
    """Construct NOPE's program encoding (one procedure per nonterminal)."""
    normalized = normalize_for_gfa(grammar)
    procedures: List[Procedure] = []
    for nonterminal in normalized.nonterminals:
        procedure = Procedure(name=f"gen_{nonterminal.name}", nonterminal=nonterminal)
        for production in normalized.productions_of(nonterminal):
            calls = ", ".join(f"gen_{arg.name}()" for arg in production.args)
            symbol = production.symbol
            label = symbol.name if symbol.payload is None else str(symbol)
            procedure.branches.append(f"{label}({calls})" if calls else f"{label}")
        procedures.append(procedure)
    assertion = f"not ({spec_description}) for examples {examples}"
    return ReachabilityProgram(procedures, assertion)


@register_engine("nope")
@dataclass
class Nope(EngineConfigMixin):
    """The NOPE baseline: its program-reachability encoding, checked as nayHorn."""

    seed: Optional[int] = None
    timeout_seconds: Optional[float] = None
    max_iterations: int = 40
    prune: str = "off"

    @property
    def name(self) -> str:
        return "nope"

    def check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        """One unrealizability check, decided as nayHorn decides it."""
        return NayHorn(prune=self.prune).check(problem, examples)

    def solve(
        self, problem: SyGuSProblem, initial_examples: Optional[ExampleSet] = None
    ) -> CegisResult:
        """The CEGIS loop with NOPE's checker injected in place of NAY's."""
        solver = NaySolver(
            NayConfig(
                mode="horn",
                seed=self.seed,
                timeout_seconds=self.timeout_seconds,
                max_iterations=self.max_iterations,
                checker=self.check,
            )
        )
        return solver.solve(problem, initial_examples)

    def program(self, problem: SyGuSProblem, examples: ExampleSet) -> ReachabilityProgram:
        """The reachability program (for inspection and tests)."""
        return build_reachability_program(
            problem.grammar, examples, problem.spec.description or "spec"
        )

    def horn_system(self, problem: SyGuSProblem, examples: ExampleSet) -> HornSystem:
        return encode_gfa_as_horn(problem.grammar, examples, problem.spec)
