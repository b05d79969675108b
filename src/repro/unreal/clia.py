"""The exact decision procedure for CLIA SyGuS problems with examples (§6).

The grammar may mix integer and Boolean nonterminals, mutually recursive
through ``IfThenElse`` guards.  The procedure is the SolveMutual algorithm of
§6.4:

* **Step 1 (SolveBool, §6.3)** — with the integer nonterminals fixed to their
  values from the previous round, the Boolean equations live in the finite
  domain of Boolean-vector sets and are solved by Kleene iteration
  (Lem. 6.5);
* **Step 2 (RemIf + Newton, §6.4)** — with the Boolean nonterminals fixed,
  the integer equations are rewritten by RemIf into pure
  combine/extend form over ``(nonterminal, mask)`` variables (Lem. 6.8) and
  solved exactly with Newton's method, stratified as in §7.

The alternation terminates after at most ``|N| * 2^|E|`` rounds (Lem. 6.6)
because the Boolean-vector sets only ever grow.  The resulting abstraction is
exact (Lem. 6.2), so Alg. 1 returns two-valued verdicts (Thm. 6.9).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.domains.boolvectors import BoolVectorSet
from repro.domains.clia import CliaInterpretation
from repro.domains.semilinear import SemiLinearSet
from repro.engine.cache import get_cache
from repro.gfa.builder import build_remif_equations
from repro.gfa.fixpoint import (
    DENSE,
    WORKLIST,
    FixpointDivergenceError,
    check_strategy,
    invert_dependencies,
    solve_dense,
    solve_worklist,
)
from repro.gfa.newton import solve_stratified
from repro.gfa.semiring import SemiLinearSemiring
from repro.gfa.stratify import equation_strata, single_stratum
from repro.grammar.alphabet import Sort
from repro.grammar.analysis import productive_nonterminals
from repro.grammar.automaton import PruneReport
from repro.grammar.rtg import Nonterminal, RegularTreeGrammar
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.unreal.certificates import (
    build_clia_certificate,
    build_unproductive_certificate,
)
from repro.unreal.check import check_unrealizable
from repro.unreal.result import CheckResult, Verdict
from repro.utils.errors import SolverLimitError, UnsupportedFeatureError
from repro.utils.stats import note
from repro.utils.vectors import BoolVector


@dataclass
class CliaGfaSolution:
    """Solved CLIA GFA problem: values for integer and Boolean nonterminals."""

    start_value: SemiLinearSet
    integer_values: Dict[Nonterminal, SemiLinearSet]
    boolean_values: Dict[Nonterminal, BoolVectorSet]
    outer_iterations: int
    solve_seconds: float
    evaluations: int = 0
    prune_report: "PruneReport | None" = None


def solve_clia_gfa(
    grammar: RegularTreeGrammar,
    examples: ExampleSet,
    stratify: bool = True,
    simplify: bool = True,
    max_outer_iterations: int | None = None,
    strategy: str = WORKLIST,
    interpretation: CliaInterpretation | None = None,
    prune: str = "off",
) -> CliaGfaSolution:
    """SolveMutual (§6.4): exact abstraction of a CLIA grammar on examples.

    ``interpretation`` substitutes the production functions — the default is
    the exact :class:`CliaInterpretation`; :func:`check_clia_examples`
    passes its own to keep the comparison record, and the certificate
    builder, when it must re-solve, passes a coarser comparison
    interpretation whose transfers the independent proof checker can replay
    without a solver.

    ``prune`` applies the tree-automaton grammar reduction before any
    equations are built (see :func:`repro.grammar.automaton.prune_grammar`);
    the returned value maps cover every nonterminal of the unpruned
    normalized grammar via the prune report's representative expansion.
    """
    check_strategy(strategy)
    normalized = get_cache().normalized(grammar)
    if not normalized.is_clia():
        raise UnsupportedFeatureError("grammar contains operators outside CLIA")
    report: "PruneReport | None" = None
    if prune != "off":
        normalized, report = get_cache().pruned(normalized, examples, prune)
    dimension = len(examples)
    if interpretation is None:
        interpretation = CliaInterpretation(examples)
    semiring = SemiLinearSemiring(dimension, simplify=simplify)

    integer_nts = [nt for nt in normalized.nonterminals if nt.sort == Sort.INT]
    boolean_nts = [nt for nt in normalized.nonterminals if nt.sort == Sort.BOOL]
    if max_outer_iterations is None:
        max_outer_iterations = max(2, len(normalized.nonterminals) * (2 ** dimension) + 2)

    start_time = time.monotonic()
    productive = productive_nonterminals(normalized)
    if normalized.start not in productive:
        empty = SemiLinearSet.empty(dimension)
        return CliaGfaSolution(
            empty, {normalized.start: empty}, {}, 0, 0.0, prune_report=report
        )

    integer_values: Dict[Nonterminal, SemiLinearSet] = {
        nt: SemiLinearSet.empty(dimension) for nt in integer_nts
    }
    boolean_values: Dict[Nonterminal, BoolVectorSet] = {
        nt: BoolVectorSet.empty(dimension) for nt in boolean_nts
    }
    all_true = BoolVector.all_true(dimension)

    evaluations = 0
    for iteration in range(1, max_outer_iterations + 1):
        new_boolean, bool_evaluations = solve_bool(
            normalized, interpretation, integer_values, strategy=strategy
        )
        system = build_remif_equations(normalized, interpretation, new_boolean)
        strata = equation_strata(system) if stratify else single_stratum(system)
        solution = solve_stratified(system, semiring, strata, strategy=strategy)
        evaluations += bool_evaluations + solution.stats.evaluations
        new_integer = {nt: solution[(nt, all_true)] for nt in integer_nts}

        boolean_stable = all(
            new_boolean[nt] == boolean_values[nt] for nt in boolean_nts
        )
        integer_stable = all(
            semiring.equal(new_integer[nt], integer_values[nt]) for nt in integer_nts
        )
        integer_values, boolean_values = new_integer, new_boolean
        if boolean_stable and integer_stable:
            elapsed = time.monotonic() - start_time
            if report is not None:
                integer_values = report.expand_values(integer_values)
                boolean_values = report.expand_values(boolean_values)
            return CliaGfaSolution(
                start_value=integer_values[normalized.start],
                integer_values=integer_values,
                boolean_values=boolean_values,
                outer_iterations=iteration,
                solve_seconds=elapsed,
                evaluations=evaluations,
                prune_report=report,
            )
    raise SolverLimitError("SolveMutual did not converge within its iteration bound")


def solve_bool(
    grammar: RegularTreeGrammar,
    interpretation: CliaInterpretation,
    integer_values: Dict[Nonterminal, SemiLinearSet],
    strategy: str = WORKLIST,
) -> "Tuple[Dict[Nonterminal, BoolVectorSet], int]":
    """SolveBool (§6.3): fixpoint iteration over the finite Boolean domain.

    Returns the per-nonterminal Boolean-vector sets together with the number
    of nonterminal evaluations performed.  The default worklist strategy only
    re-evaluates a nonterminal when one of the Boolean nonterminals it reads
    changed; ``"dense"`` is the historical every-nonterminal-every-round
    iteration.  Lem. 6.5 bounds the visits by ``n * 2^|E|``.
    """
    dimension = interpretation.dimension
    boolean_nts = [nt for nt in grammar.nonterminals if nt.sort == Sort.BOOL]
    initial: Dict[Nonterminal, BoolVectorSet] = {
        nt: BoolVectorSet.empty(dimension) for nt in boolean_nts
    }

    def step(nonterminal, values, visit):
        accumulated = values[nonterminal]
        for production in grammar.productions_of(nonterminal):
            arguments = []
            for argument in production.args:
                if argument.sort == Sort.INT:
                    arguments.append(integer_values[argument])
                else:
                    arguments.append(values[argument])
            result = interpretation.apply(
                production.symbol.name, production.symbol.payload, arguments
            )
            accumulated = accumulated.combine(result)
        return accumulated

    # Lem. 6.5: at most n * 2^|E| rounds/visits are needed.
    bound = max(2, len(boolean_nts) * (2 ** dimension) + 2)
    equal = BoolVectorSet.__eq__
    try:
        if strategy == DENSE:
            values, stats = solve_dense(
                boolean_nts, initial, step, equal, max_iterations=bound
            )
        else:
            dependencies = {
                nt: [
                    argument
                    for production in grammar.productions_of(nt)
                    for argument in production.args
                    if argument.sort == Sort.BOOL
                ]
                for nt in boolean_nts
            }
            values, stats = solve_worklist(
                boolean_nts,
                initial,
                step,
                equal,
                invert_dependencies(dependencies),
                max_visits=bound,
            )
    except FixpointDivergenceError as error:
        # Only the driver's own budget is translated; SolverLimitErrors from
        # inside the step (ILP/elimination budgets) keep their diagnostics.
        raise SolverLimitError(
            "SolveBool did not converge within its iteration bound"
        ) from error
    return values, stats.evaluations


def check_clia_examples(
    problem: SyGuSProblem,
    examples: ExampleSet,
    stratify: bool = True,
    strategy: str = WORKLIST,
    prune: str = "off",
) -> CheckResult:
    """Alg. 1 instantiated with the exact CLIA abstraction (§6.5, Thm. 6.9)."""
    if len(examples) == 0:
        productive = productive_nonterminals(problem.grammar)
        if problem.grammar.start in productive:
            return CheckResult(verdict=Verdict.REALIZABLE, examples=examples)
        return CheckResult(
            verdict=Verdict.UNREALIZABLE,
            examples=examples,
            certificate=build_unproductive_certificate(problem),
        )
    interpretation = CliaInterpretation(examples)
    gfa = solve_clia_gfa(
        problem.grammar,
        examples,
        stratify=stratify,
        strategy=strategy,
        interpretation=interpretation,
        prune=prune,
    )
    result = check_unrealizable(
        gfa.start_value,
        problem.spec,
        examples,
        exact=True,
        abstraction_size=gfa.start_value.size,
    )
    if result.verdict == Verdict.UNREALIZABLE:
        # The builder certifies the coarse fixpoint of the unpruned,
        # stratified worklist solve.  A solve with those settings is handed
        # over with its comparison record, and the builder reuses it when
        # the coarse transfer agrees with every recorded comparison; any
        # other solve leaves the builder to re-solve.
        same_settings = stratify and strategy == WORKLIST and prune == "off"
        result.certificate = build_clia_certificate(
            problem,
            examples,
            exact=gfa if same_settings else None,
            comparisons=interpretation.comparisons,
        )
    result.details["gfa_seconds"] = gfa.solve_seconds
    result.details["outer_iterations"] = gfa.outer_iterations
    result.details["gfa_evaluations"] = gfa.evaluations
    if gfa.prune_report is not None:
        note(gfa.prune_report.counters())
    result.details["boolean_values"] = {
        str(nt): str(value) for nt, value in gfa.boolean_values.items()
    }
    return result
