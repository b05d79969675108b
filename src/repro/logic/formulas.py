"""Quantifier-free LIA formulas: Boolean structure over linear atoms.

An :class:`Atom` is a comparison ``expr <op> 0`` where ``expr`` is a
:class:`~repro.logic.terms.LinearExpression` and ``op`` is one of
``<=, <, =, !=`` (``>=`` and ``>`` are normalised away by negating the
expression).  Formulas are built with the smart constructors
:func:`conjunction`, :func:`disjunction` and :func:`negation`, which perform
light simplification (flattening, unit and constant elimination) so that the
downstream solver sees small inputs.

All variables are integer-valued and implicitly existentially quantified;
non-negativity side conditions (for semi-linear-set parameters) are expressed
as ordinary atoms ``lambda >= 0``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Tuple

from repro.logic.terms import LinearExpression
from repro.utils.errors import SolverError


class Comparison(enum.Enum):
    """Comparison operators of normalised atoms (``expr <op> 0``)."""

    LE = "<="
    LT = "<"
    EQ = "="
    NE = "!="

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Formula:
    """Base class for QF-LIA formulas."""

    def variables(self) -> Tuple[str, ...]:
        """All variable names occurring in the formula, sorted."""
        names = set()
        self._collect_variables(names)
        return tuple(sorted(names))

    def _collect_variables(self, accumulator: set) -> None:
        raise NotImplementedError

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        """Evaluate under a total integer assignment (used by tests/models)."""
        raise NotImplementedError

    def substitute(self, assignment: Mapping[str, LinearExpression]) -> "Formula":
        """Replace variables by linear expressions."""
        raise NotImplementedError

    # Convenience connectives -------------------------------------------------

    def __and__(self, other: "Formula") -> "Formula":
        return conjunction([self, other])

    def __or__(self, other: "Formula") -> "Formula":
        return disjunction([self, other])

    def __invert__(self) -> "Formula":
        return negation(self)


@dataclass(frozen=True)
class BoolLit(Formula):
    """The constants true and false."""

    value: bool

    def _collect_variables(self, accumulator: set) -> None:
        return None

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return self.value

    def substitute(self, assignment: Mapping[str, LinearExpression]) -> Formula:
        return self

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolLit(True)
FALSE = BoolLit(False)


@dataclass(frozen=True)
class Atom(Formula):
    """A normalised linear atom ``expression <op> 0``."""

    expression: LinearExpression
    comparison: Comparison

    def __hash__(self) -> int:
        # Cached: the solver interns atoms and keys caches on formulas, so
        # the same nodes are hashed constantly (the generated dataclass
        # hash would recompute the tuple hash every call).
        try:
            return self._hash
        except AttributeError:
            value = hash((self.expression, self.comparison))
            object.__setattr__(self, "_hash", value)
            return value

    def _collect_variables(self, accumulator: set) -> None:
        accumulator.update(self.expression.variables)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        value = self.expression.evaluate(assignment)
        if self.comparison == Comparison.LE:
            return value <= 0
        if self.comparison == Comparison.LT:
            return value < 0
        if self.comparison == Comparison.EQ:
            return value == 0
        return value != 0

    def substitute(self, assignment: Mapping[str, LinearExpression]) -> Formula:
        return make_atom(self.expression.substitute(assignment), self.comparison)

    def negated(self) -> Formula:
        """The complementary atom (kept atomic; no Not node needed)."""
        if self.comparison == Comparison.LE:
            # not(e <= 0)  <=>  e > 0  <=>  -e < 0
            return make_atom(-self.expression, Comparison.LT)
        if self.comparison == Comparison.LT:
            return make_atom(-self.expression, Comparison.LE)
        if self.comparison == Comparison.EQ:
            return make_atom(self.expression, Comparison.NE)
        return make_atom(self.expression, Comparison.EQ)

    def __str__(self) -> str:
        return f"({self.expression} {self.comparison} 0)"


@dataclass(frozen=True)
class And(Formula):
    """Conjunction of sub-formulas."""

    operands: Tuple[Formula, ...]

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(("and", self.operands))
            object.__setattr__(self, "_hash", value)
            return value

    def _collect_variables(self, accumulator: set) -> None:
        for operand in self.operands:
            operand._collect_variables(accumulator)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return all(operand.evaluate(assignment) for operand in self.operands)

    def substitute(self, assignment: Mapping[str, LinearExpression]) -> Formula:
        return conjunction([operand.substitute(assignment) for operand in self.operands])

    def __str__(self) -> str:
        return "(and " + " ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction of sub-formulas."""

    operands: Tuple[Formula, ...]

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(("or", self.operands))
            object.__setattr__(self, "_hash", value)
            return value

    def _collect_variables(self, accumulator: set) -> None:
        for operand in self.operands:
            operand._collect_variables(accumulator)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return any(operand.evaluate(assignment) for operand in self.operands)

    def substitute(self, assignment: Mapping[str, LinearExpression]) -> Formula:
        return disjunction([operand.substitute(assignment) for operand in self.operands])

    def __str__(self) -> str:
        return "(or " + " ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Not(Formula):
    """Negation; removed by NNF conversion before solving."""

    operand: Formula

    def _collect_variables(self, accumulator: set) -> None:
        self.operand._collect_variables(accumulator)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return not self.operand.evaluate(assignment)

    def substitute(self, assignment: Mapping[str, LinearExpression]) -> Formula:
        return negation(self.operand.substitute(assignment))

    def __str__(self) -> str:
        return f"(not {self.operand})"


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def make_atom(expression: LinearExpression, comparison: Comparison) -> Formula:
    """Build an atom, folding it to a Boolean literal if it is ground."""
    if expression.is_constant():
        value = expression.constant
        if comparison == Comparison.LE:
            return BoolLit(value <= 0)
        if comparison == Comparison.LT:
            return BoolLit(value < 0)
        if comparison == Comparison.EQ:
            return BoolLit(value == 0)
        return BoolLit(value != 0)
    return Atom(expression, comparison)


def _difference(
    lhs: LinearExpression | int, rhs: LinearExpression | int
) -> LinearExpression:
    if isinstance(lhs, int):
        lhs = LinearExpression.constant_expr(lhs)
    if isinstance(rhs, int):
        rhs = LinearExpression.constant_expr(rhs)
    if not isinstance(lhs, LinearExpression) or not isinstance(rhs, LinearExpression):
        raise SolverError("atoms must compare linear expressions")
    return lhs - rhs


def atom_le(lhs: LinearExpression | int, rhs: LinearExpression | int) -> Formula:
    """``lhs <= rhs``"""
    return make_atom(_difference(lhs, rhs), Comparison.LE)


def atom_lt(lhs: LinearExpression | int, rhs: LinearExpression | int) -> Formula:
    """``lhs < rhs``"""
    return make_atom(_difference(lhs, rhs), Comparison.LT)


def atom_ge(lhs: LinearExpression | int, rhs: LinearExpression | int) -> Formula:
    """``lhs >= rhs``"""
    return make_atom(_difference(rhs, lhs), Comparison.LE)


def atom_gt(lhs: LinearExpression | int, rhs: LinearExpression | int) -> Formula:
    """``lhs > rhs``"""
    return make_atom(_difference(rhs, lhs), Comparison.LT)


def atom_eq(lhs: LinearExpression | int, rhs: LinearExpression | int) -> Formula:
    """``lhs = rhs``"""
    return make_atom(_difference(lhs, rhs), Comparison.EQ)


def atom_ne(lhs: LinearExpression | int, rhs: LinearExpression | int) -> Formula:
    """``lhs != rhs``"""
    return make_atom(_difference(lhs, rhs), Comparison.NE)


def conjunction(operands: Iterable[Formula]) -> Formula:
    """Flattening, simplifying conjunction."""
    flattened = []
    for operand in operands:
        if isinstance(operand, BoolLit):
            if not operand.value:
                return FALSE
            continue
        if isinstance(operand, And):
            flattened.extend(operand.operands)
        else:
            flattened.append(operand)
    unique = _dedupe(flattened)
    if not unique:
        return TRUE
    if len(unique) == 1:
        return unique[0]
    return And(tuple(unique))


def disjunction(operands: Iterable[Formula]) -> Formula:
    """Flattening, simplifying disjunction."""
    flattened = []
    for operand in operands:
        if isinstance(operand, BoolLit):
            if operand.value:
                return TRUE
            continue
        if isinstance(operand, Or):
            flattened.extend(operand.operands)
        else:
            flattened.append(operand)
    unique = _dedupe(flattened)
    if not unique:
        return FALSE
    if len(unique) == 1:
        return unique[0]
    return Or(tuple(unique))


def negation(operand: Formula) -> Formula:
    """Negation with literal folding and double-negation elimination."""
    if isinstance(operand, BoolLit):
        return BoolLit(not operand.value)
    if isinstance(operand, Not):
        return operand.operand
    if isinstance(operand, Atom):
        return operand.negated()
    return Not(operand)


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """``antecedent -> consequent``"""
    return disjunction([negation(antecedent), consequent])


def iff(lhs: Formula, rhs: Formula) -> Formula:
    """``lhs <-> rhs``"""
    return conjunction([implies(lhs, rhs), implies(rhs, lhs)])


def _dedupe(operands: Sequence[Formula]) -> list:
    # Order-preserving; formulas are immutable and hashable, so a set gives
    # O(n) dedup (the old list scan was quadratic and showed up in solver
    # normalization profiles).
    seen = set()
    unique = []
    for operand in operands:
        if operand not in seen:
            seen.add(operand)
            unique.append(operand)
    return unique
