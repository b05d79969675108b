"""The multi-sorted abstract semantics of CLIA operators (§6.2).

Integer-sorted values are abstracted by semi-linear sets, Boolean-sorted
values by sets of Boolean vectors.  This module implements the production
functions ``[[g]]#_E`` for every CLIA+ operator:

* the LIA+ operators ``Plus#``, ``Num#``, ``Var#``, ``NegVar#`` (Eqns. 21-24);
* ``LessThan#`` (and the other comparisons), implemented with one integer
  feasibility query per candidate Boolean vector, exactly as described at the
  end of §6.2 ("2^|E| SMT queries");
* ``And#``, ``Or#``, ``Not#`` on Boolean-vector sets;
* ``IfThenElse#`` via ``projSL`` (§6.2).

These functions are exact abstract transformers (Lem. 6.2): applied to
singleton abstractions they return the singleton abstraction of the concrete
result.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple, Union

from repro.domains.boolvectors import BoolVectorSet
from repro.domains.semilinear import LinearSet, SemiLinearSet
from repro.logic.formulas import (
    Formula,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
)
from repro.logic.solver import SolverContext
from repro.logic.terms import LinearExpression
from repro.semantics.examples import ExampleSet
from repro.utils.errors import SemanticsError
from repro.utils.vectors import BoolVector, IntVector

#: A value of the multi-sorted domain D_CLIA+ (§6.2).
AbstractValue = Union[SemiLinearSet, BoolVectorSet]


def combine(left: AbstractValue, right: AbstractValue) -> AbstractValue:
    """The overloaded ``(+)`` of the multi-sorted domain (footnote 4)."""
    if isinstance(left, SemiLinearSet) and isinstance(right, SemiLinearSet):
        return left.combine(right)
    if isinstance(left, BoolVectorSet) and isinstance(right, BoolVectorSet):
        return left.combine(right)
    raise SemanticsError("cannot combine values of different sorts")


def leq(left: AbstractValue, right: AbstractValue) -> bool:
    """The induced order on the multi-sorted domain."""
    if isinstance(left, SemiLinearSet) and isinstance(right, SemiLinearSet):
        return left.leq(right)
    if isinstance(left, BoolVectorSet) and isinstance(right, BoolVectorSet):
        return left.leq(right)
    raise SemanticsError("cannot compare values of different sorts")


class CliaInterpretation:
    """The production functions ``[[g]]#_E`` for a fixed example set ``E``."""

    def __init__(self, examples: ExampleSet):
        self.examples = examples
        self.dimension = len(examples)
        #: Every comparison answered by :meth:`comparison` on non-empty
        #: arguments, as ``(name, left, right) -> result``.  The certificate
        #: builder replays it against the checker's coarse transfer to decide
        #: whether this solve's values can be certified as they are.
        self.comparisons: Dict[
            Tuple[str, SemiLinearSet, SemiLinearSet], BoolVectorSet
        ] = {}

    # -- leaf symbols ---------------------------------------------------------

    def num(self, value: int) -> SemiLinearSet:
        """Eqn. (22): the singleton constant vector ``<c, ..., c>``."""
        return SemiLinearSet.singleton(IntVector.constant(value, self.dimension))

    def var(self, name: str) -> SemiLinearSet:
        """Eqn. (23): the projection of the examples onto one variable."""
        return SemiLinearSet.singleton(self.examples.projection(name))

    def neg_var(self, name: str) -> SemiLinearSet:
        """Eqn. (24): the negated projection."""
        return SemiLinearSet.singleton(-self.examples.projection(name))

    def bool_const(self, value: bool) -> BoolVectorSet:
        return BoolVectorSet.singleton(BoolVector.constant(value, self.dimension))

    # -- integer operators ----------------------------------------------------

    def plus(self, left: SemiLinearSet, right: SemiLinearSet) -> SemiLinearSet:
        """Eqn. (21): ``Plus#`` is the semiring extend operation."""
        return left.extend(right)

    def if_then_else(
        self,
        guards: BoolVectorSet,
        then_value: SemiLinearSet,
        else_value: SemiLinearSet,
    ) -> SemiLinearSet:
        """``IfThenElse#`` (§6.2): per-guard projection and recombination."""
        result = SemiLinearSet.empty(self.dimension)
        for guard in guards:
            branch = then_value.project(guard).extend(else_value.project(~guard))
            result = result.combine(branch)
        return result

    # -- Boolean operators ----------------------------------------------------

    def not_(self, operand: BoolVectorSet) -> BoolVectorSet:
        return operand.negate()

    def and_(self, left: BoolVectorSet, right: BoolVectorSet) -> BoolVectorSet:
        return left.conjoin(right)

    def or_(self, left: BoolVectorSet, right: BoolVectorSet) -> BoolVectorSet:
        return left.disjoin(right)

    def comparison(
        self, name: str, left: SemiLinearSet, right: SemiLinearSet
    ) -> BoolVectorSet:
        """``LessThan#`` and friends: which comparison patterns are achievable?

        For every candidate Boolean vector ``b`` we ask one integer
        feasibility query: is there a member of ``left`` and a member of
        ``right`` whose component-wise comparison equals ``b``?  This is the
        "2^|E| SMT queries" implementation described in §6.2.  A
        comparison already answered in this solve (SolveMutual re-runs
        SolveBool every outer round) is returned from :attr:`comparisons`.
        """
        if left.is_empty() or right.is_empty():
            return BoolVectorSet.empty(self.dimension)
        known = self.comparisons.get((name, left, right))
        if known is not None:
            return known
        achievable: List[BoolVector] = []
        left_outputs = [
            LinearExpression.variable(f"_cmp_l{i}") for i in range(self.dimension)
        ]
        right_outputs = [
            LinearExpression.variable(f"_cmp_r{i}") for i in range(self.dimension)
        ]
        # The membership skeleton is shared by all 2^|E| queries: assert it
        # once in a solver context (normalized once) and only swap the
        # per-candidate comparison atoms as assumptions.
        context = SolverContext()
        context.assert_formula(left.symbolic(left_outputs, tag="L"))
        context.assert_formula(right.symbolic(right_outputs, tag="R"))
        for candidate in BoolVector.enumerate_all(self.dimension):
            assumptions: List[Formula] = [
                _comparison_formula(
                    name,
                    left_outputs[index],
                    right_outputs[index],
                    candidate[index],
                )
                for index in range(self.dimension)
            ]
            if context.check(assumptions).is_sat:
                achievable.append(candidate)
        result = BoolVectorSet(achievable, self.dimension)
        self.comparisons[(name, left, right)] = result
        return result

    # -- generic dispatch -----------------------------------------------------

    def apply(self, symbol_name: str, payload, args: Sequence[AbstractValue]):
        """Apply ``[[g]]#_E`` by operator name (used by Kleene iteration)."""
        if symbol_name == "Num":
            return self.num(int(payload))
        if symbol_name == "Var":
            return self.var(str(payload))
        if symbol_name == "NegVar":
            return self.neg_var(str(payload))
        if symbol_name == "BoolConst":
            return self.bool_const(bool(payload))
        if symbol_name == "Pass":
            return args[0]
        if symbol_name == "Plus":
            result = args[0]
            for arg in args[1:]:
                result = self.plus(result, arg)  # type: ignore[arg-type]
            return result
        if symbol_name == "IfThenElse":
            return self.if_then_else(args[0], args[1], args[2])  # type: ignore[arg-type]
        if symbol_name == "Not":
            return self.not_(args[0])  # type: ignore[arg-type]
        if symbol_name == "And":
            return self.and_(args[0], args[1])  # type: ignore[arg-type]
        if symbol_name == "Or":
            return self.or_(args[0], args[1])  # type: ignore[arg-type]
        if symbol_name in ("LessThan", "LessEq", "GreaterThan", "GreaterEq", "Equal"):
            return self.comparison(symbol_name, args[0], args[1])  # type: ignore[arg-type]
        raise SemanticsError(f"no abstract semantics for operator {symbol_name}")

    def bottom(self, sort_is_bool: bool) -> AbstractValue:
        """The least element of the appropriate sort."""
        if sort_is_bool:
            return BoolVectorSet.empty(self.dimension)
        return SemiLinearSet.empty(self.dimension)


def _comparison_formula(
    name: str,
    left: LinearExpression,
    right: LinearExpression,
    expected: bool,
) -> Formula:
    """The LIA constraint "left <cmp> right has truth value ``expected``"."""
    positive: Dict[str, Callable[[LinearExpression, LinearExpression], Formula]] = {
        "LessThan": atom_lt,
        "LessEq": atom_le,
        "GreaterThan": atom_gt,
        "GreaterEq": atom_ge,
        "Equal": atom_eq,
    }
    negative: Dict[str, Callable[[LinearExpression, LinearExpression], Formula]] = {
        "LessThan": atom_ge,
        "LessEq": atom_gt,
        "GreaterThan": atom_le,
        "GreaterEq": atom_lt,
        "Equal": lambda a, b: atom_lt(a, b) | atom_gt(a, b),
    }
    builder = positive[name] if expected else negative[name]
    return builder(left, right)
