"""Polynomial equation systems over a semiring (the ``n_G`` equations, Eqn. 12).

After interpreting every alphabet symbol, a GFA equation for a nonterminal
``X`` has the shape::

    X  =  m_1 (+) m_2 (+) ... (+) m_k

where each monomial ``m_i`` is an extend-product of a constant semiring
element and zero or more variables (other nonterminals).  LIA+ grammars
produce exactly this shape because ``Plus#`` is the semiring extend and the
leaves are constants (Eqns. 21-24); the RemIf rewriting of §6.4 produces the
same shape for CLIA grammars.

The representation is deliberately simple — a dict from variable key to
:class:`Polynomial` — and is shared by the Newton and Kleene solvers.
Variable keys can be any hashable value (plain nonterminals for LIA,
``(nonterminal, Boolean vector)`` pairs after RemIf).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generic, Hashable, Iterable, List, Mapping, Sequence, Tuple, TypeVar

from repro.gfa.semiring import Semiring

Key = Hashable
Element = TypeVar("Element")


def invert_dependencies(
    dependencies: Mapping[Key, Iterable[Key]],
) -> Dict[Key, Tuple[Key, ...]]:
    """Turn a ``reader -> inputs`` map into an ``input -> readers`` map.

    This is the edge map the worklist solvers follow when a value changes;
    :meth:`EquationSystem.dependents` derives it from the polynomials, and
    the grammar-driven solvers (SolveBool, the approximate engine) build it
    from production arguments.
    """
    dependents: Dict[Key, List[Key]] = {}
    for reader, inputs in dependencies.items():
        for used in inputs:
            users = dependents.setdefault(used, [])
            if reader not in users:
                users.append(reader)
    return {key: tuple(users) for key, users in dependents.items()}


@dataclass(frozen=True)
class Monomial(Generic[Element]):
    """``coefficient (x) X_1 (x) ... (x) X_k`` (the X_i may repeat)."""

    coefficient: Element
    variables: Tuple[Key, ...] = ()

    def evaluate(self, semiring: Semiring, assignment: Mapping[Key, Element]) -> Element:
        value = self.coefficient
        for variable in self.variables:
            value = semiring.extend(value, assignment[variable])
        return value

    def differentiate(
        self,
        variable: Key,
        semiring: Semiring,
        assignment: Mapping[Key, Element],
    ) -> Element:
        """The formal partial derivative evaluated at ``assignment``.

        For commutative semirings the derivative of a monomial with respect
        to ``X`` is the combine over each occurrence of ``X`` of the monomial
        with that occurrence removed (Esparza et al.).
        """
        total = semiring.zero()
        for index, occurrence in enumerate(self.variables):
            if occurrence != variable:
                continue
            value = self.coefficient
            for other_index, other in enumerate(self.variables):
                if other_index == index:
                    continue
                value = semiring.extend(value, assignment[other])
            total = semiring.combine(total, value)
        return total

    def __str__(self) -> str:
        if not self.variables:
            return str(self.coefficient)
        variables = " (x) ".join(str(v) for v in self.variables)
        return f"{self.coefficient} (x) {variables}"


@dataclass(frozen=True)
class Polynomial(Generic[Element]):
    """A combine of monomials (one right-hand side of an equation)."""

    monomials: Tuple[Monomial, ...] = ()

    @staticmethod
    def of(monomials: Iterable[Monomial]) -> "Polynomial":
        return Polynomial(tuple(monomials))

    def evaluate(self, semiring: Semiring, assignment: Mapping[Key, Element]) -> Element:
        value = semiring.zero()
        for monomial in self.monomials:
            value = semiring.combine(value, monomial.evaluate(semiring, assignment))
        return value

    def differentiate(
        self,
        variable: Key,
        semiring: Semiring,
        assignment: Mapping[Key, Element],
    ) -> Element:
        value = semiring.zero()
        for monomial in self.monomials:
            value = semiring.combine(
                value, monomial.differentiate(variable, semiring, assignment)
            )
        return value

    def variables(self) -> Tuple[Key, ...]:
        """The distinct variables of this polynomial, in first-seen order.

        Cached on the instance: the worklist solver and Newton's sparse
        Jacobian consult the occurring-variable set on every visit.
        """
        cached = getattr(self, "_variables", None)
        if cached is None:
            cached = tuple(
                dict.fromkeys(
                    variable
                    for monomial in self.monomials
                    for variable in monomial.variables
                )
            )
            object.__setattr__(self, "_variables", cached)
        return cached

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        return " (+) ".join(str(monomial) for monomial in self.monomials)


class EquationSystem(Generic[Element]):
    """A finite system ``X_i = P_i(X_1, ..., X_n)`` over one semiring."""

    def __init__(self, equations: Mapping[Key, Polynomial]):
        self.equations: Dict[Key, Polynomial] = dict(equations)
        self._dependents: Dict[Key, Tuple[Key, ...]] = None  # type: ignore[assignment]

    @property
    def variables(self) -> Tuple[Key, ...]:
        return tuple(self.equations.keys())

    def dependents(self) -> Dict[Key, Tuple[Key, ...]]:
        """``used -> users``: which equations read each variable.

        Computed once per system and cached (equation systems are never
        mutated after construction).
        """
        if self._dependents is None:
            self._dependents = invert_dependencies(
                {key: polynomial.variables() for key, polynomial in self.equations.items()}
            )
        return self._dependents

    def evaluate(
        self, semiring: Semiring, assignment: Mapping[Key, Element]
    ) -> Dict[Key, Element]:
        """Apply the right-hand sides once (one Kleene step)."""
        return {
            key: polynomial.evaluate(semiring, assignment)
            for key, polynomial in self.equations.items()
        }

    def zero_assignment(self, semiring: Semiring) -> Dict[Key, Element]:
        return {key: semiring.zero() for key in self.equations}

    def restricted_to(self, keys: Sequence[Key]) -> "EquationSystem":
        """The sub-system containing only the given variables' equations."""
        return EquationSystem({key: self.equations[key] for key in keys})

    def substitute_constants(
        self, semiring: Semiring, values: Mapping[Key, Element]
    ) -> "EquationSystem":
        """Replace references to already-solved variables by their values.

        Used by the stratified solver (§7): when processing a stratum, the
        variables of earlier strata are constants.
        """
        new_equations: Dict[Key, Polynomial] = {}
        for key, polynomial in self.equations.items():
            if key in values:
                continue
            monomials: List[Monomial] = []
            for monomial in polynomial.monomials:
                coefficient = monomial.coefficient
                remaining: List[Key] = []
                for variable in monomial.variables:
                    if variable in values:
                        coefficient = semiring.extend(coefficient, values[variable])
                    else:
                        remaining.append(variable)
                monomials.append(Monomial(coefficient, tuple(remaining)))
            new_equations[key] = Polynomial(tuple(monomials))
        return EquationSystem(new_equations)

    def __str__(self) -> str:
        lines = [f"{key} = {polynomial}" for key, polynomial in self.equations.items()]
        return "\n".join(lines)
