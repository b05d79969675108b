"""Integer (Diophantine) equality elimination.

Branch-and-bound over the rational relaxation alone does not terminate on
systems whose equalities have rational but no integer solutions (for example
``2x - 2y = 1``).  The standard fix, used by every LIA decision procedure, is
to eliminate equality constraints with exact integer reasoning first:

* the GCD test rejects ``sum a_i x_i + c = 0`` when ``gcd(a_i)`` does not
  divide ``c``;
* an equality with a unit-coefficient variable is solved for that variable
  and substituted away;
* otherwise the classic *coefficient-reduction* step introduces a fresh
  variable ``t = x_k + sum_i q_i x_i`` (where ``q_i = a_i div a_k``), which is
  a bijection on integer solutions and strictly decreases the minimum
  absolute coefficient, so the loop terminates.

The eliminations are recorded so that an integer model of the reduced system
can be lifted back to a model of the original one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.logic.terms import LinearExpression


@dataclass
class EliminationResult:
    """Outcome of equality elimination.

    ``satisfiable`` is False when the equalities alone are integer-infeasible.
    Otherwise ``inequalities`` is the rewritten inequality system (each entry
    meaning ``expr <= 0``) over the remaining variables, and ``substitutions``
    records ``(variable, expression)`` pairs in elimination order for model
    reconstruction via :func:`lift_model`.
    """

    satisfiable: bool
    inequalities: List[LinearExpression]
    substitutions: List[Tuple[str, LinearExpression]]


def eliminate_equalities(
    equalities: Sequence[LinearExpression],
    inequalities: Sequence[LinearExpression],
    fresh_prefix: str = "_elim",
) -> EliminationResult:
    """Eliminate ``expr = 0`` constraints, rewriting the inequality system."""
    pending: List[LinearExpression] = list(equalities)
    current_inequalities: List[LinearExpression] = list(inequalities)
    substitutions: List[Tuple[str, LinearExpression]] = []
    fresh_counter = 0
    # Coefficient reduction strictly shrinks the minimum |coefficient| of the
    # equality being processed, so the per-equality step count is bounded by
    # the coefficient magnitudes; this budget only guards against regressions.
    budget = 1000 * (len(pending) + 1)

    while pending:
        budget -= 1
        if budget < 0:  # pragma: no cover - defensive
            from repro.utils.errors import SolverLimitError

            raise SolverLimitError("equality elimination exceeded its step budget")
        equality = pending.pop(0)
        coefficients = equality.coefficients
        if not coefficients:
            if equality.constant != 0:
                return EliminationResult(False, [], [])
            continue

        gcd = 0
        for value in coefficients.values():
            gcd = math.gcd(gcd, abs(value))
        if equality.constant % gcd != 0:
            return EliminationResult(False, [], [])
        if gcd > 1:
            equality = LinearExpression(
                {name: value // gcd for name, value in coefficients.items()},
                equality.constant // gcd,
            )
            coefficients = equality.coefficients

        unit_variable = None
        for name, value in sorted(coefficients.items()):
            if abs(value) == 1:
                unit_variable = name
                break

        if unit_variable is not None:
            solution = _solve_for(equality, unit_variable)
            mapping = {unit_variable: solution}
            pending = [expr.substitute(mapping) for expr in pending]
            current_inequalities = [
                expr.substitute(mapping) for expr in current_inequalities
            ]
            substitutions.append((unit_variable, solution))
            continue

        # Coefficient reduction: no unit coefficient exists.
        pivot_variable = min(
            coefficients, key=lambda name: (abs(coefficients[name]), name)
        )
        pivot_coefficient = coefficients[pivot_variable]
        fresh_counter += 1
        fresh_variable = f"{fresh_prefix}{fresh_counter}"
        # t = x_k + sum_{i != k} q_i x_i  with  q_i = a_i div a_k (floor division)
        replacement = LinearExpression.variable(fresh_variable)
        quotient_terms: Dict[str, int] = {}
        for name, value in coefficients.items():
            if name == pivot_variable:
                continue
            quotient_terms[name] = value // pivot_coefficient
        for name, quotient in quotient_terms.items():
            replacement = replacement - LinearExpression({name: quotient}, 0)
        mapping = {pivot_variable: replacement}
        new_equality = equality.substitute(mapping)
        pending = [expr.substitute(mapping) for expr in pending]
        # Keep reducing the same equality until a unit coefficient appears:
        # its minimum |coefficient| strictly decreases each round, so this
        # terminates.  (Rotating to the back of the queue instead can cycle
        # forever — two unit-free equalities keep rewriting each other with
        # fresh variables and never shrink.)
        pending.insert(0, new_equality)
        current_inequalities = [
            expr.substitute(mapping) for expr in current_inequalities
        ]
        substitutions.append((pivot_variable, replacement))

    return EliminationResult(True, current_inequalities, substitutions)


def _solve_for(equality: LinearExpression, variable: str) -> LinearExpression:
    """Solve ``equality = 0`` for a variable whose coefficient is +-1."""
    coefficient = equality.coefficient(variable)
    rest = equality - LinearExpression({variable: coefficient}, 0)
    if coefficient == 1:
        return -rest
    return rest


def lift_model(
    model: Dict[str, int], substitutions: Sequence[Tuple[str, LinearExpression]]
) -> Dict[str, int]:
    """Extend a model of the reduced system to the eliminated variables.

    Substitutions are processed in reverse elimination order: the expression
    recorded for a variable only mentions variables that were still present
    when it was eliminated, all of which receive values first.
    """
    lifted = dict(model)

    def value_of(expression: LinearExpression) -> int:
        total = expression.constant
        for name, coefficient in expression.coefficients.items():
            total += coefficient * lifted.get(name, 0)
        return total

    for variable, expression in reversed(list(substitutions)):
        lifted[variable] = value_of(expression)
    return lifted


def tighten_inequality(inequality: LinearExpression) -> LinearExpression:
    """Integer-strengthen ``expr <= 0`` by the gcd of its coefficients.

    With ``g = gcd(a_i)``, the constraint ``sum a_i x_i + c <= 0`` holds over
    the integers iff ``sum (a_i/g) x_i + ceil(c/g) <= 0`` does (the left sum
    is always a multiple of ``g``).  The rounded cut is strictly tighter for
    the LP relaxation whenever ``g`` does not divide ``c``, which lets the
    branch-and-bound close strips like ``1 <= 2x <= 1`` without branching.
    """
    coefficients = inequality.items
    if not coefficients:
        return inequality
    gcd = 0
    for _, value in coefficients:
        gcd = math.gcd(gcd, value)
        if gcd == 1:
            return inequality
    constant = -((-inequality.constant) // gcd)  # ceil division
    return LinearExpression(
        {name: value // gcd for name, value in coefficients}, constant
    )
