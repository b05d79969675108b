"""Algorithm 1: CheckUnrealizable over an arbitrary abstraction (§4.3).

Given the abstract value computed for the start nonterminal, the check builds
the property

    P  :=  gamma_hat(n(Start), o)  AND  AND_j  psi(o_j, i_j)

(Thm. 4.5) and hands it to the QF-LIA solver.  ``P`` unsatisfiable implies
the example-restricted problem is unrealizable; if the abstraction is exact,
``P`` satisfiable implies it is realizable, otherwise the answer is unknown.
"""

from __future__ import annotations

import time
from typing import Protocol, Sequence

from repro.logic.formulas import Formula
from repro.logic.solver import SolverContext
from repro.logic.terms import LinearExpression
from repro.semantics.examples import ExampleSet
from repro.sygus.spec import Specification
from repro.unreal.result import CheckResult, Verdict


class SymbolicAbstraction(Protocol):
    """Any abstract value supporting symbolic concretization (§5.4)."""

    def symbolic(self, outputs: Sequence[LinearExpression]) -> Formula:
        """gamma_hat(self, outputs)."""


def output_variables(count: int) -> list[LinearExpression]:
    """The output variables ``o_1 ... o_n`` shared by all disjuncts (§5.4)."""
    return [LinearExpression.variable(f"_o{index}") for index in range(count)]


def check_unrealizable(
    abstraction: SymbolicAbstraction,
    spec: Specification,
    examples: ExampleSet,
    exact: bool,
    abstraction_size: int = 0,
) -> CheckResult:
    """Lines 3-5 of Alg. 1: decide the verdict from the abstraction.

    The conjuncts of ``P`` go into a :class:`SolverContext` one by one — the
    membership disjunction and each example's spec instance are normalized
    independently, and the solver's cross-query cache/lemma stores carry
    shared sub-conjunctions across the checks a CEGIS loop issues.
    """
    start_time = time.monotonic()
    outputs = output_variables(len(examples))
    context = SolverContext()
    context.assert_formula(abstraction.symbolic(outputs))
    for index, example in enumerate(examples):
        context.assert_formula(spec.instantiate(example, outputs[index]))
    result = context.check()
    elapsed = time.monotonic() - start_time
    if result.is_unsat:
        verdict = Verdict.UNREALIZABLE
    elif exact:
        verdict = Verdict.REALIZABLE
    else:
        verdict = Verdict.UNKNOWN
    # The model is normalized to a plain {str: int} dict at construction so
    # the result's ``details`` payload is always JSON-serializable (the api
    # wire format embeds it verbatim).
    details = (
        {"model": {str(name): int(value) for name, value in result.model.items()}}
        if result.is_sat and result.model is not None
        else {}
    )
    details["solver"] = dict(result.statistics)
    return CheckResult(
        verdict=verdict,
        examples=examples,
        elapsed_seconds=elapsed,
        abstraction_size=abstraction_size,
        details=details,
    )
