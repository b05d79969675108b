"""Linear integer expressions: ``c0 + c1*x1 + ... + cn*xn``.

These are the terms of the QF-LIA fragment.  They are immutable and support
the ring operations needed to build atoms; coefficients and the constant are
Python integers (arbitrary precision).
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.utils.errors import SolverError


class LinearExpression:
    """An immutable linear expression over named integer variables."""

    __slots__ = ("_coefficients", "_constant", "_hash")

    def __init__(self, coefficients: Mapping[str, int] | None = None, constant: int = 0):
        cleaned: Dict[str, int] = {}
        if coefficients:
            for name, coefficient in coefficients.items():
                coefficient = int(coefficient)
                if coefficient != 0:
                    cleaned[str(name)] = coefficient
        self._coefficients: Tuple[Tuple[str, int], ...] = tuple(
            sorted(cleaned.items())
        )
        self._constant = int(constant)
        self._hash: int | None = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant_expr(value: int) -> "LinearExpression":
        return LinearExpression({}, value)

    @staticmethod
    def variable(name: str) -> "LinearExpression":
        return LinearExpression({name: 1}, 0)

    # -- accessors -----------------------------------------------------------

    @property
    def coefficients(self) -> Dict[str, int]:
        return dict(self._coefficients)

    @property
    def items(self) -> Tuple[Tuple[str, int], ...]:
        """The sorted ``(name, coefficient)`` pairs without a dict copy.

        The solver's inner loops (simplex row construction, bound
        propagation, cache keys) iterate coefficients millions of times;
        this hands out the internal tuple directly.
        """
        return self._coefficients

    @property
    def constant(self) -> int:
        return self._constant

    def key(self) -> Tuple[Tuple[Tuple[str, int], ...], int]:
        """A hashable structural identity (used for canonical atom keys)."""
        return (self._coefficients, self._constant)

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._coefficients)

    def coefficient(self, name: str) -> int:
        for variable, value in self._coefficients:
            if variable == name:
                return value
        return 0

    def is_constant(self) -> bool:
        return not self._coefficients

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LinearExpression | int") -> "LinearExpression":
        other = _coerce(other)
        merged = dict(self._coefficients)
        for name, value in other._coefficients:
            merged[name] = merged.get(name, 0) + value
        return LinearExpression(merged, self._constant + other._constant)

    def __radd__(self, other: int) -> "LinearExpression":
        return self.__add__(other)

    def __sub__(self, other: "LinearExpression | int") -> "LinearExpression":
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> "LinearExpression":
        return _coerce(other) - self

    def __neg__(self) -> "LinearExpression":
        return self.scale(-1)

    def scale(self, factor: int) -> "LinearExpression":
        factor = int(factor)
        return LinearExpression(
            {name: factor * value for name, value in self._coefficients},
            factor * self._constant,
        )

    def __mul__(self, factor: int) -> "LinearExpression":
        if isinstance(factor, LinearExpression):
            if factor.is_constant():
                return self.scale(factor.constant)
            if self.is_constant():
                return factor.scale(self.constant)
            raise SolverError("nonlinear multiplication is not supported in LIA")
        return self.scale(factor)

    def __rmul__(self, factor: int) -> "LinearExpression":
        return self.__mul__(factor)

    def substitute(self, assignment: Mapping[str, "LinearExpression"]) -> "LinearExpression":
        """Replace variables by linear expressions (used by equality elimination)."""
        result = LinearExpression({}, self._constant)
        for name, value in self._coefficients:
            if name in assignment:
                result = result + assignment[name].scale(value)
            else:
                result = result + LinearExpression({name: value}, 0)
        return result

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Evaluate under a total integer assignment."""
        total = self._constant
        for name, value in self._coefficients:
            if name not in assignment:
                raise SolverError(f"assignment is missing variable {name!r}")
            total += value * int(assignment[name])
        return total

    # -- equality / hashing / printing ---------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearExpression)
            and self._coefficients == other._coefficients
            and self._constant == other._constant
        )

    def __hash__(self) -> int:
        # Computed lazily and cached: the solver's interning tables and
        # cache keys hash the same expressions over and over.
        value = self._hash
        if value is None:
            value = hash((self._coefficients, self._constant))
            self._hash = value
        return value

    def __str__(self) -> str:
        parts = []
        for name, value in self._coefficients:
            if value == 1:
                parts.append(name)
            elif value == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{value}*{name}")
        if self._constant != 0 or not parts:
            parts.append(str(self._constant))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LinearExpression({self})"


def _coerce(value: "LinearExpression | int") -> LinearExpression:
    if isinstance(value, LinearExpression):
        return value
    if isinstance(value, int):
        return LinearExpression.constant_expr(value)
    raise SolverError(f"cannot coerce {value!r} to a linear expression")
