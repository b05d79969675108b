"""Printer emitting SyGuS-IF concrete syntax for a SyGuS problem.

The printer is the inverse of :mod:`repro.sygus.parser` on the supported
fragment, which the round-trip tests exercise.  It is also used to export the
generated benchmark suites as ``.sl`` files so they can be inspected or fed
to external solvers.
"""

from __future__ import annotations

from typing import Dict, List

from repro.grammar.alphabet import Sort
from repro.grammar.rtg import Production, RegularTreeGrammar
from repro.logic.formulas import And, Atom, BoolLit, Comparison, Formula, Not, Or
from repro.logic.terms import LinearExpression
from repro.sygus.problem import SyGuSProblem
from repro.sygus.spec import OUTPUT_VARIABLE
from repro.utils.errors import UnsupportedFeatureError

_FUNCTION_NAME = "f"


def print_sygus(problem: SyGuSProblem) -> str:
    """Render a SyGuS problem in SyGuS-IF concrete syntax."""
    lines: List[str] = [f"(set-logic {problem.logic})", ""]
    lines.append(_print_synth_fun(problem))
    lines.append("")
    for variable in problem.variables:
        lines.append(f"(declare-var {variable} Int)")
    lines.append("")
    lines.append(f"(constraint {_print_formula(problem.spec.formula, problem)})")
    lines.append("")
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"


def _print_synth_fun(problem: SyGuSProblem) -> str:
    grammar = problem.grammar
    arguments = " ".join(f"({name} Int)" for name in problem.variables)
    # SyGuS takes the first listed nonterminal as the start symbol.
    others = [nt for nt in grammar.nonterminals if nt != grammar.start]
    groups = []
    for nonterminal in (grammar.start, *others):
        sort = "Int" if nonterminal.sort == Sort.INT else "Bool"
        alternatives = " ".join(
            _print_production(production) for production in grammar.productions_of(nonterminal)
        )
        groups.append(f"    ({nonterminal.name} {sort} ({alternatives}))")
    body = "\n".join(groups)
    return (
        f"(synth-fun {_FUNCTION_NAME} ({arguments}) Int\n"
        f"  (\n{body}\n  ))"
    )


def _print_production(production: Production) -> str:
    symbol = production.symbol
    name = symbol.name
    args = " ".join(arg.name for arg in production.args)
    if name == "Num":
        value = int(symbol.payload)  # type: ignore[arg-type]
        return str(value) if value >= 0 else f"(- {abs(value)})"
    if name == "Var":
        return str(symbol.payload)
    if name == "NegVar":
        return f"(- {symbol.payload})"
    if name == "BoolConst":
        return "true" if symbol.payload else "false"
    if name == "Pass":
        return production.args[0].name
    operator = {
        "Plus": "+",
        "Minus": "-",
        "IfThenElse": "ite",
        "And": "and",
        "Or": "or",
        "Not": "not",
        "LessThan": "<",
        "LessEq": "<=",
        "GreaterThan": ">",
        "GreaterEq": ">=",
        "Equal": "=",
    }.get(name)
    if operator is None:
        raise UnsupportedFeatureError(f"cannot print grammar operator {name}")
    return f"({operator} {args})"


def _print_formula(formula: Formula, problem: SyGuSProblem) -> str:
    if isinstance(formula, BoolLit):
        return "true" if formula.value else "false"
    if isinstance(formula, Atom):
        return _print_atom(formula, problem)
    if isinstance(formula, And):
        inner = " ".join(_print_formula(op, problem) for op in formula.operands)
        return f"(and {inner})"
    if isinstance(formula, Or):
        inner = " ".join(_print_formula(op, problem) for op in formula.operands)
        return f"(or {inner})"
    if isinstance(formula, Not):
        return f"(not {_print_formula(formula.operand, problem)})"
    raise UnsupportedFeatureError(f"cannot print formula node {type(formula).__name__}")


def _print_atom(atom: Atom, problem: SyGuSProblem) -> str:
    operator = {
        Comparison.LE: "<=",
        Comparison.LT: "<",
        Comparison.EQ: "=",
        Comparison.NE: "distinct",
    }[atom.comparison]
    return f"({operator} {_print_linear(atom.expression, problem)} 0)"


def _print_linear(expression: LinearExpression, problem: SyGuSProblem) -> str:
    parts: List[str] = []
    for name, coefficient in expression.coefficients.items():
        rendered_name = (
            f"({_FUNCTION_NAME} {' '.join(problem.variables)})"
            if name == OUTPUT_VARIABLE
            else name
        )
        if coefficient == 1:
            parts.append(rendered_name)
        else:
            parts.append(f"(* {_print_int(coefficient)} {rendered_name})")
    if expression.constant != 0 or not parts:
        parts.append(_print_int(expression.constant))
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def _print_int(value: int) -> str:
    return str(value) if value >= 0 else f"(- {abs(value)})"
