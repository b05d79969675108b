"""The approximate instantiation of the framework (§4.3), domain-generic.

The paper's generic recipe for arbitrary SyGuS problems is: pick any abstract
domain, solve the GFA equations with Kleene iteration (adding a widening
operator when the domain has infinite ascending chains), and run Alg. 1's
final check.  The result is sound but incomplete — ``UNREALIZABLE`` answers
are trustworthy; everything else is ``UNKNOWN`` unless the domain stayed
exact (in which case ``REALIZABLE`` is also trustworthy, Thm. 4.5(2)).

This module owns the *solver*: generic chaotic iteration with widening over
any :class:`~repro.domains.base.AbstractDomain`, resolved by registry name
(:mod:`repro.domains.registry`).  The abstractions themselves live in
:mod:`repro.domains` — ``"numeric"`` (the interval x congruence reduced
product, default, and the engine behind the NayHorn/NOPE Spacer substitutes;
see DESIGN.md), ``"interval"`` (plain boxes, solver-free check),
``"powerset"`` (exact finite behavior sets), and ``"product"`` (the generic
reduced-product combinator).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict

from repro.domains.registry import DomainLike, resolve_domain
from repro.engine.cache import get_cache
from repro.gfa.fixpoint import (
    DENSE,
    WORKLIST,
    FixpointDivergenceError,
    check_strategy,
    invert_dependencies,
    solve_dense,
    solve_worklist,
)
from repro.grammar.analysis import productive_nonterminals
from repro.grammar.automaton import PruneReport
from repro.grammar.rtg import Nonterminal, RegularTreeGrammar
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.unreal.certificates import (
    build_abstract_certificate,
    build_unproductive_certificate,
)
from repro.unreal.result import CheckResult, Verdict
from repro.utils.errors import SolverLimitError
from repro.utils.stats import note

#: The abstraction used when no domain is requested: the interval x
#: congruence reduced product the repo has always shipped.
DEFAULT_DOMAIN = "numeric"


@dataclass
class AbstractSolution:
    """Fixpoint of the approximate GFA problem."""

    start_value: object
    values: Dict[Nonterminal, object]
    iterations: int
    solve_seconds: float
    evaluations: int = 0
    domain: str = DEFAULT_DOMAIN
    prune_report: "PruneReport | None" = None


def solve_abstract_gfa(
    grammar: RegularTreeGrammar,
    examples: ExampleSet,
    widening_delay: int = 6,
    max_iterations: int = 500,
    strategy: str = WORKLIST,
    domain: DomainLike = DEFAULT_DOMAIN,
    prune: str = "off",
):
    """Chaotic iteration with widening over a pluggable abstract domain.

    ``domain`` is a registry name or a ready
    :class:`~repro.domains.base.AbstractDomain` instance.  The default
    worklist strategy only re-evaluates a nonterminal when one of the
    nonterminals its productions mention changed; ``"dense"`` sweeps every
    nonterminal every round (debug fallback / perf baseline).  ``prune``
    shrinks the grammar first (:func:`repro.grammar.automaton.prune_grammar`);
    merged nonterminals reappear in ``values`` with their representative's
    fixpoint value.
    """
    check_strategy(strategy)
    abstraction = resolve_domain(domain)
    normalized = get_cache().normalized(grammar)
    report: "PruneReport | None" = None
    if prune != "off":
        normalized, report = get_cache().pruned(normalized, examples, prune)
    dimension = len(examples)
    initial: Dict[Nonterminal, object] = {
        nonterminal: abstraction.bottom(nonterminal.sort, dimension)
        for nonterminal in normalized.nonterminals
    }

    def step(nonterminal, values, visit):
        accumulated = values[nonterminal]
        for production in normalized.productions_of(nonterminal):
            result = abstraction.transfer(
                production, [values[arg] for arg in production.args], examples
            )
            accumulated = abstraction.join(accumulated, result)
        if visit > widening_delay:
            accumulated = abstraction.widen(values[nonterminal], accumulated)
        return accumulated

    keys = list(normalized.nonterminals)
    start_time = time.monotonic()
    try:
        if strategy == DENSE:
            values, stats = solve_dense(
                keys, initial, step, abstraction.equal, max_iterations=max_iterations
            )
        else:
            dependencies = {
                nt: [
                    argument
                    for production in normalized.productions_of(nt)
                    for argument in production.args
                ]
                for nt in keys
            }
            values, stats = solve_worklist(
                keys,
                initial,
                step,
                abstraction.equal,
                invert_dependencies(dependencies),
                max_visits=max_iterations,
            )
    except FixpointDivergenceError as error:
        raise SolverLimitError("abstract fixpoint iteration did not converge") from error
    elapsed = time.monotonic() - start_time
    if report is not None:
        values = report.expand_values(values)
    return AbstractSolution(
        values[normalized.start],
        values,
        stats.iterations,
        elapsed,
        stats.evaluations,
        domain=abstraction.name,
        prune_report=report,
    )


def check_examples_abstract(
    problem: SyGuSProblem,
    examples: ExampleSet,
    strategy: str = WORKLIST,
    domain: DomainLike = DEFAULT_DOMAIN,
    prune: str = "off",
) -> CheckResult:
    """Alg. 1 with an approximate domain: sound ``UNREALIZABLE`` answers.

    ``REALIZABLE`` (on the given examples) is only ever returned by domains
    that certify exactness for the whole solve (the powerset domain below
    its cap); inexact domains answer ``UNKNOWN`` instead.
    """
    abstraction = resolve_domain(domain)
    if len(examples) == 0:
        productive = productive_nonterminals(problem.grammar)
        if problem.grammar.start in productive:
            return CheckResult(verdict=Verdict.UNKNOWN, examples=examples)
        return CheckResult(
            verdict=Verdict.UNREALIZABLE,
            examples=examples,
            certificate=build_unproductive_certificate(problem),
        )
    early = abstraction.pre_check(examples)
    if early is not None:
        return early
    solution = solve_abstract_gfa(
        problem.grammar, examples, strategy=strategy, domain=abstraction, prune=prune
    )
    result = abstraction.check(solution.start_value, problem.spec, examples)
    if result.verdict == Verdict.UNREALIZABLE:
        result.certificate = build_abstract_certificate(
            problem, examples, solution.values, abstraction
        )
    result.details["iterations"] = solution.iterations
    result.details["gfa_seconds"] = solution.solve_seconds
    result.details["gfa_evaluations"] = solution.evaluations
    result.details["domain"] = abstraction.name
    if solution.prune_report is not None:
        note(solution.prune_report.counters())
    return result
