"""The exact decision procedure for LIA SyGuS problems with examples (§5).

Pipeline (Thm. 5.9):

1. normalise the grammar: lower n-ary Plus, remove Minus (§5.2), trim;
2. build the GFA equation system over semi-linear sets (Eqn. 25);
3. solve it exactly with Newton's method, stratified by the SCCs of the
   dependence graph (§5.1, §7);
4. run Alg. 1's final satisfiability check (§5.4).

Because the abstraction is exact (Lem. 5.6), the verdict is two-valued:
``UNREALIZABLE`` or ``REALIZABLE`` (over the given examples).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.domains.semilinear import SemiLinearSet
from repro.engine.cache import get_cache
from repro.gfa.newton import solve_newton, solve_stratified
from repro.gfa.semiring import SemiLinearSemiring
from repro.gfa.stratify import equation_strata, single_stratum
from repro.grammar.analysis import productive_nonterminals
from repro.grammar.automaton import PruneReport
from repro.grammar.rtg import Nonterminal, RegularTreeGrammar
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.unreal.certificates import (
    build_lia_certificate,
    build_unproductive_certificate,
)
from repro.unreal.check import check_unrealizable
from repro.unreal.result import CheckResult, Verdict
from repro.utils.errors import UnsupportedFeatureError
from repro.utils.stats import note


@dataclass
class GfaSolution:
    """The solved GFA problem: one abstract value per nonterminal."""

    start_value: SemiLinearSet
    values: Dict[Nonterminal, SemiLinearSet]
    solve_seconds: float
    iterations: int = 0
    evaluations: int = 0
    prune_report: Optional[PruneReport] = None


def solve_lia_gfa(
    grammar: RegularTreeGrammar,
    examples: ExampleSet,
    stratify: bool = True,
    simplify: bool = True,
    strategy: str = "worklist",
    prune: str = "off",
) -> GfaSolution:
    """Compute ``n_{G_E}(X)`` for every nonterminal of an LIA grammar.

    ``strategy`` selects the fixpoint machinery (see
    :mod:`repro.gfa.fixpoint`): ``"worklist"`` (default) uses the sparse,
    dependency-driven Newton solver; ``"dense"`` rebuilds the full Jacobian
    every round (debug fallback / perf baseline).

    ``prune`` shrinks the grammar before any equations exist (see
    :func:`repro.grammar.automaton.prune_grammar`): ``"reduce"`` merges
    exactly language-equal nonterminals, ``"oe"`` additionally merges
    leaves with identical behavior vectors on ``examples``.  The returned
    ``values`` always cover every nonterminal of the *unpruned* normalized
    grammar — merged nonterminals report their representative's value —
    so certificate builders are unaffected by the knob.
    """
    cache = get_cache()
    normalized = cache.normalized(grammar)
    if not normalized.is_lia_plus():
        raise UnsupportedFeatureError(
            "grammar is not an LIA grammar; use the CLIA procedure instead"
        )
    semiring = SemiLinearSemiring(len(examples), simplify=simplify)

    start_time = time.monotonic()
    report: Optional[PruneReport] = None
    if prune != "off":
        normalized, report = cache.pruned(normalized, examples, prune)
    productive = productive_nonterminals(normalized)
    if normalized.start not in productive:
        empty = SemiLinearSet.empty(len(examples))
        return GfaSolution(
            empty, {normalized.start: empty}, 0.0, prune_report=report
        )

    system = cache.lia_equations(normalized, examples)
    strata = equation_strata(system) if stratify else single_stratum(system)
    solution = solve_stratified(system, semiring, strata, strategy=strategy)
    elapsed = time.monotonic() - start_time
    values = dict(solution)
    if report is not None:
        values = report.expand_values(values)
    return GfaSolution(
        start_value=solution[normalized.start],
        values=values,
        solve_seconds=elapsed,
        iterations=solution.stats.iterations,
        evaluations=solution.stats.evaluations,
        prune_report=report,
    )


def check_lia_examples(
    problem: SyGuSProblem,
    examples: ExampleSet,
    stratify: bool = True,
    strategy: str = "worklist",
    prune: str = "off",
) -> CheckResult:
    """Alg. 1 instantiated with the exact semi-linear-set domain (§5)."""
    if len(examples) == 0:
        return _empty_example_check(problem, examples)
    gfa = solve_lia_gfa(
        problem.grammar, examples, stratify=stratify, strategy=strategy, prune=prune
    )
    result = check_unrealizable(
        gfa.start_value,
        problem.spec,
        examples,
        exact=True,
        abstraction_size=gfa.start_value.size,
    )
    if result.verdict == Verdict.UNREALIZABLE:
        result.certificate = build_lia_certificate(problem, examples, gfa.values)
    result.details["gfa_seconds"] = gfa.solve_seconds
    result.details["gfa_evaluations"] = gfa.evaluations
    if gfa.prune_report is not None:
        note(gfa.prune_report.counters())
    return result


def _empty_example_check(problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
    """With no examples, sy_E is realizable iff the grammar's language is
    nonempty (any term vacuously satisfies the empty conjunction)."""
    productive = productive_nonterminals(problem.grammar)
    if problem.grammar.start in productive:
        return CheckResult(verdict=Verdict.REALIZABLE, examples=examples)
    return CheckResult(
        verdict=Verdict.UNREALIZABLE,
        examples=examples,
        certificate=build_unproductive_certificate(problem),
    )
