"""The pre-incremental QF-LIA solver, preserved verbatim as an oracle.

This module is the solver stack exactly as it existed before the DPLL(T)
rewrite: a recursive depth-first search over the Boolean structure, a
from-scratch branch-and-bound per conjunction (first-fractional branching,
no warm starts, no lemma learning), and a per-cell ``Fraction`` Phase-I
simplex.  It exists as a differential oracle: the rewritten solver must
agree with this one on every formula.  ``tests/test_logic_core.py`` pits
them against each other and against brute-force enumeration, on random
formulas and on the query streams of real naySL checks captured with
:func:`repro.logic.solver.record_queries`.  The speedup of the rewrite over
this baseline is on record in CHANGES.md (PR 4).

Nothing in the production pipeline imports this module; it shares only the
formula/term data types and the Diophantine equality elimination (which the
rewrite kept).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.diophantine import eliminate_equalities, lift_model
from repro.logic.formulas import (
    And,
    Atom,
    BoolLit,
    Comparison,
    Formula,
    Not,
    Or,
    make_atom,
)
from repro.logic.rewrites import simplify, to_nnf
from repro.logic.terms import LinearExpression
from repro.utils.errors import SolverError, SolverLimitError

#: The historical branch-and-bound node budget.
REFERENCE_NODE_LIMIT = 4000


# ---------------------------------------------------------------------------
# Boolean search (the pre-rewrite solver.py)
# ---------------------------------------------------------------------------


def reference_check_sat(
    formula: Formula, node_limit: int = REFERENCE_NODE_LIMIT
) -> Tuple[bool, Optional[Dict[str, int]]]:
    """Decide satisfiability the pre-rewrite way; returns ``(is_sat, model)``."""
    prepared = to_nnf(simplify(formula))
    model = _search([prepared], [], node_limit)
    if model is None:
        return False, None
    for name in formula.variables():
        model.setdefault(name, 0)
    return True, model


def _search(
    pending: List[Formula],
    atoms: List[Atom],
    node_limit: int,
) -> Optional[Dict[str, int]]:
    if not pending:
        return reference_integer_feasible(atoms, node_limit=node_limit)

    first = pending[0]
    rest = pending[1:]

    if isinstance(first, BoolLit):
        if first.value:
            return _search(rest, atoms, node_limit)
        return None

    if isinstance(first, Atom):
        if first.comparison == Comparison.NE:
            less = make_atom(first.expression, Comparison.LT)
            greater = make_atom(-first.expression, Comparison.LT)
            for case in (less, greater):
                result = _search([case] + rest, atoms, node_limit)
                if result is not None:
                    return result
            return None
        return _search(rest, atoms + [first], node_limit)

    if isinstance(first, And):
        return _search(list(first.operands) + rest, atoms, node_limit)

    if isinstance(first, Or):
        for operand in first.operands:
            result = _search([operand] + rest, atoms, node_limit)
            if result is not None:
                return result
        return None

    if isinstance(first, Not):  # pragma: no cover - NNF removes Not nodes
        raise SolverError("solver requires formulas in negation normal form")

    raise SolverError(f"unknown formula node {type(first).__name__}")


# ---------------------------------------------------------------------------
# Integer feasibility (the pre-rewrite ilp.py)
# ---------------------------------------------------------------------------


def reference_integer_feasible(
    atoms: Sequence[Atom],
    node_limit: int = REFERENCE_NODE_LIMIT,
) -> Optional[Dict[str, int]]:
    """The pre-rewrite conjunction solver: first-fractional branch-and-bound."""
    equalities: List[LinearExpression] = []
    inequalities: List[LinearExpression] = []
    for atom in atoms:
        if atom.comparison == Comparison.EQ:
            equalities.append(atom.expression)
        elif atom.comparison == Comparison.LE:
            inequalities.append(atom.expression)
        elif atom.comparison == Comparison.LT:
            inequalities.append(atom.expression + 1)
        else:
            raise SolverError("disequalities must be split before calling the ILP core")

    original_variables = sorted(
        {name for atom in atoms for name in atom.expression.variables}
    )

    extra_equalities, inequalities = _recover_equalities(inequalities)
    equalities.extend(extra_equalities)

    if _strip_infeasible(inequalities):
        return None

    elimination = eliminate_equalities(equalities, inequalities)
    if not elimination.satisfiable:
        return None

    reduced_model = _branch_and_bound(elimination.inequalities, node_limit)
    if reduced_model is None:
        return None

    model = lift_model(reduced_model, elimination.substitutions)
    for name in original_variables:
        model.setdefault(name, 0)
    return {name: value for name, value in model.items() if name in original_variables}


def _recover_equalities(
    inequalities: Sequence[LinearExpression],
) -> Tuple[List[LinearExpression], List[LinearExpression]]:
    keyed = {}
    for expression in inequalities:
        key = (tuple(sorted(expression.coefficients.items())), expression.constant)
        keyed.setdefault(key, []).append(expression)

    equalities: List[LinearExpression] = []
    remaining: List[LinearExpression] = []
    consumed = set()
    for key, expressions in list(keyed.items()):
        if key in consumed:
            continue
        expression = expressions[0]
        negated = -expression
        negated_key = (
            tuple(sorted(negated.coefficients.items())),
            negated.constant,
        )
        if negated_key in keyed and negated_key != key and negated_key not in consumed:
            equalities.append(expression)
            consumed.add(key)
            consumed.add(negated_key)
        else:
            remaining.extend(expressions)
            consumed.add(key)
    return equalities, remaining


def _strip_infeasible(inequalities: Sequence[LinearExpression]) -> bool:
    upper_bounds: Dict[Tuple[Tuple[str, int], ...], int] = {}
    for expression in inequalities:
        coefficients = tuple(sorted(expression.coefficients.items()))
        if not coefficients:
            continue
        bound = -expression.constant
        key = coefficients
        if key not in upper_bounds or bound < upper_bounds[key]:
            upper_bounds[key] = bound
    for key, upper in upper_bounds.items():
        negated_key = tuple(sorted((name, -value) for name, value in key))
        if negated_key not in upper_bounds:
            continue
        lower = -upper_bounds[negated_key]
        if lower > upper:
            return True
        gcd = 0
        for _, value in key:
            gcd = math.gcd(gcd, abs(value))
        if gcd == 0:
            continue
        if (upper // gcd) * gcd < lower:
            return True
    return False


def _branch_and_bound(
    inequalities: List[LinearExpression],
    node_limit: int,
) -> Optional[Dict[str, int]]:
    stack: List[List[LinearExpression]] = [[]]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > node_limit:
            raise SolverLimitError(
                f"branch-and-bound exceeded the node budget ({node_limit})"
            )
        bounds = stack.pop()
        point = reference_feasible_point(list(inequalities) + bounds)
        if point is None:
            continue
        fractional = _first_fractional(point)
        if fractional is None:
            return {name: int(value) for name, value in point.items()}
        name, value = fractional
        floor_value = math.floor(value)
        ceil_value = floor_value + 1
        upper = LinearExpression({name: 1}, -floor_value)
        lower = LinearExpression({name: -1}, ceil_value)
        stack.append(bounds + [lower])
        stack.append(bounds + [upper])
    return None


def _first_fractional(
    point: Dict[str, Fraction],
) -> Optional[Tuple[str, Fraction]]:
    for name in sorted(point):
        value = point[name]
        if value.denominator != 1:
            return name, value
    return None


# ---------------------------------------------------------------------------
# Rational feasibility (the pre-rewrite Fraction simplex)
# ---------------------------------------------------------------------------


def reference_feasible_point(
    constraints: Sequence[LinearExpression],
) -> Optional[Dict[str, Fraction]]:
    """The pre-rewrite Phase-I simplex over per-cell ``Fraction`` arithmetic."""
    variables = sorted({name for expr in constraints for name in expr.variables})
    if not variables:
        for expr in constraints:
            if expr.constant > 0:
                return None
        return {}

    num_vars = len(variables)
    num_rows = len(constraints)
    var_index = {name: i for i, name in enumerate(variables)}
    num_columns = 2 * num_vars + 2 * num_rows

    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    for expr in constraints:
        row = [Fraction(0)] * num_columns
        for name, coefficient in expr.coefficients.items():
            row[var_index[name]] += Fraction(coefficient)
            row[num_vars + var_index[name]] -= Fraction(coefficient)
        row[2 * num_vars + len(rows)] = Fraction(1)  # slack
        bound = Fraction(-expr.constant)
        if bound < 0:
            row = [-value for value in row]
            bound = -bound
        artificial_column = 2 * num_vars + num_rows + len(rows)
        row[artificial_column] = Fraction(1)
        rows.append(row)
        rhs.append(bound)

    basis = [2 * num_vars + num_rows + i for i in range(num_rows)]

    def column_cost(column: int) -> Fraction:
        return Fraction(1) if column >= 2 * num_vars + num_rows else Fraction(0)

    reduced = [
        column_cost(j) - sum(rows[i][j] for i in range(num_rows))
        for j in range(num_columns)
    ]

    max_pivots = 8000 + 200 * num_columns
    for _ in range(max_pivots):
        entering = next((j for j in range(num_columns) if reduced[j] < 0), None)
        if entering is None:
            break
        leaving_row = None
        best_ratio: Optional[Fraction] = None
        for i in range(num_rows):
            coefficient = rows[i][entering]
            if coefficient > 0:
                ratio = rhs[i] / coefficient
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving_row])
                ):
                    best_ratio = ratio
                    leaving_row = i
        if leaving_row is None:
            return None
        _pivot(rows, rhs, reduced, leaving_row, entering)
        basis[leaving_row] = entering
    else:  # pragma: no cover - defensive: Bland's rule prevents cycling
        return None

    artificial_start = 2 * num_vars + num_rows
    phase_one_value = sum(
        (rhs[i] for i in range(num_rows) if basis[i] >= artificial_start),
        Fraction(0),
    )
    if phase_one_value != 0:
        return None

    point: Dict[str, Fraction] = {}
    values = [Fraction(0)] * num_columns
    for i, column in enumerate(basis):
        values[column] = rhs[i]
    for name, index in var_index.items():
        point[name] = values[index] - values[num_vars + index]
    return point


def _pivot(
    rows: List[List[Fraction]],
    rhs: List[Fraction],
    reduced: List[Fraction],
    pivot_row: int,
    pivot_column: int,
) -> None:
    pivot_value = rows[pivot_row][pivot_column]
    inverse = Fraction(1) / pivot_value
    rows[pivot_row] = [value * inverse for value in rows[pivot_row]]
    rhs[pivot_row] = rhs[pivot_row] * inverse
    for i in range(len(rows)):
        if i == pivot_row:
            continue
        factor = rows[i][pivot_column]
        if factor != 0:
            rows[i] = [
                value - factor * pivot_entry
                for value, pivot_entry in zip(rows[i], rows[pivot_row])
            ]
            rhs[i] = rhs[i] - factor * rhs[pivot_row]
    factor = reduced[pivot_column]
    if factor != 0:
        for j in range(len(reduced)):
            reduced[j] = reduced[j] - factor * rows[pivot_row][j]
