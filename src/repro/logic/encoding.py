"""Bridges between CLIA grammar terms and QF-LIA formulas.

The CEGIS verifier needs to ask an SMT-style question about a *candidate
program* ``e``: "is there an input on which ``e`` violates the
specification?".  To phrase that in QF-LIA the candidate term is compiled
into *guarded linear expressions*: a finite set of mutually exclusive cases
``(guard formula, linear expression)`` covering all inputs, obtained by case
splitting on every ``IfThenElse`` in the term.  Boolean subterms compile to
plain formulas.  The encoding introduces no auxiliary variables, so it can be
freely negated and embedded in larger formulas.

The special case of conditional-free LIA terms maps to a single linear
expression via :func:`term_to_linear`.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from repro.grammar.terms import Term
from repro.logic.formulas import (
    FALSE,
    Formula,
    TRUE,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    conjunction,
    disjunction,
    negation,
)
from repro.logic.terms import LinearExpression
from repro.utils.errors import SolverError, UnsupportedFeatureError

#: A guarded case: the linear expression is the term's value whenever the
#: guard formula holds.  The cases produced for one term are mutually
#: exclusive and exhaustive.
GuardedCase = Tuple[Formula, LinearExpression]


def term_to_linear(
    term: Term, inputs: Mapping[str, LinearExpression]
) -> LinearExpression:
    """Translate a conditional-free integer term into a linear expression."""
    cases = compile_integer_term(term, inputs)
    if len(cases) != 1:
        raise UnsupportedFeatureError(
            "term contains conditionals; use compile_integer_term/term_to_formula"
        )
    return cases[0][1]


def compile_integer_term(
    term: Term, inputs: Mapping[str, LinearExpression]
) -> List[GuardedCase]:
    """Compile an integer-sorted CLIA term into guarded linear expressions."""
    name = term.symbol.name
    if name == "Num":
        return [(TRUE, LinearExpression.constant_expr(int(term.symbol.payload)))]  # type: ignore[arg-type]
    if name == "Var":
        return [(TRUE, _input(inputs, str(term.symbol.payload)))]
    if name == "NegVar":
        return [(TRUE, -_input(inputs, str(term.symbol.payload)))]
    if name == "Pass":
        return compile_integer_term(term.children[0], inputs)
    if name in ("Plus", "Minus"):
        combined = compile_integer_term(term.children[0], inputs)
        for child in term.children[1:]:
            child_cases = compile_integer_term(child, inputs)
            merged: List[GuardedCase] = []
            for guard_left, expr_left in combined:
                for guard_right, expr_right in child_cases:
                    guard = conjunction([guard_left, guard_right])
                    if guard == FALSE:
                        continue
                    if name == "Plus":
                        merged.append((guard, expr_left + expr_right))
                    else:
                        merged.append((guard, expr_left - expr_right))
            combined = merged
        return combined
    if name == "IfThenElse":
        guard_term, then_term, else_term = term.children
        guard_formula = compile_boolean_term(guard_term, inputs)
        cases: List[GuardedCase] = []
        for case_guard, expression in compile_integer_term(then_term, inputs):
            guard = conjunction([guard_formula, case_guard])
            if guard != FALSE:
                cases.append((guard, expression))
        negated_guard = negation(guard_formula)
        for case_guard, expression in compile_integer_term(else_term, inputs):
            guard = conjunction([negated_guard, case_guard])
            if guard != FALSE:
                cases.append((guard, expression))
        return cases
    raise UnsupportedFeatureError(f"cannot compile integer operator {name}")


def compile_boolean_term(
    term: Term, inputs: Mapping[str, LinearExpression]
) -> Formula:
    """Compile a Boolean-sorted CLIA term into a QF-LIA formula."""
    name = term.symbol.name
    if name == "BoolConst":
        return TRUE if term.symbol.payload else FALSE
    if name == "Pass":
        return compile_boolean_term(term.children[0], inputs)
    if name == "And":
        return conjunction(
            [compile_boolean_term(child, inputs) for child in term.children]
        )
    if name == "Or":
        return disjunction(
            [compile_boolean_term(child, inputs) for child in term.children]
        )
    if name == "Not":
        return negation(compile_boolean_term(term.children[0], inputs))
    if name in ("LessThan", "LessEq", "GreaterThan", "GreaterEq", "Equal"):
        left_cases = compile_integer_term(term.children[0], inputs)
        right_cases = compile_integer_term(term.children[1], inputs)
        disjuncts: List[Formula] = []
        for guard_left, expr_left in left_cases:
            for guard_right, expr_right in right_cases:
                comparison = _comparison_atom(name, expr_left, expr_right)
                disjuncts.append(
                    conjunction([guard_left, guard_right, comparison])
                )
        return disjunction(disjuncts)
    raise UnsupportedFeatureError(f"cannot compile Boolean operator {name}")


def term_to_formula(
    term: Term,
    inputs: Mapping[str, LinearExpression],
    output: LinearExpression,
) -> Formula:
    """A formula equivalent to ``output = [[term]](inputs)``."""
    cases = compile_integer_term(term, inputs)
    return disjunction(
        [conjunction([guard, atom_eq(output, expression)]) for guard, expression in cases]
    )


def bool_term_to_formula(
    term: Term, inputs: Mapping[str, LinearExpression]
) -> Formula:
    """A formula equivalent to the Boolean term's value being true."""
    return compile_boolean_term(term, inputs)


def _comparison_atom(
    name: str, left: LinearExpression, right: LinearExpression
) -> Formula:
    if name == "LessThan":
        return atom_lt(left, right)
    if name == "LessEq":
        return atom_le(left, right)
    if name == "GreaterThan":
        return atom_gt(left, right)
    if name == "GreaterEq":
        return atom_ge(left, right)
    return atom_eq(left, right)


def _input(inputs: Mapping[str, LinearExpression], name: str) -> LinearExpression:
    if name not in inputs:
        raise SolverError(f"no symbolic input provided for variable {name!r}")
    return inputs[name]
