"""Semiring interfaces for equation solving (Def. 5.1).

Newton's method only needs the semiring operations ``combine`` (+),
``extend`` (x), ``star`` (Kleene star), the constants 0 and 1, and an
equality test to detect fixpoints.  :class:`SemiLinearSemiring` packages the
semi-linear-set domain of §5.3 behind this interface (Prop. 5.8 states it is
a commutative, idempotent, omega-continuous semiring); the interface also
makes the Newton solver unit-testable on simpler semirings (e.g. the Boolean
semiring or the "formal language of Parikh vectors" semiring used in tests).

This is the *exact* half of the GFA abstraction seam.  The approximate half
is :class:`repro.domains.base.AbstractDomain`: where a semiring supplies one
``extend`` operation that every production is compiled into (which is what
Newton differentiates), an abstract domain supplies a direct per-production
``transfer`` plus widening — the right shape for lattices like intervals
that have no meaningful multiplication.  The two seams meet in
:mod:`repro.unreal`: the exact checkers solve semiring equation systems
with Newton/Kleene, the approximate checker runs chaotic iteration over a
registered domain (``docs/architecture/domains.md`` has the full picture).
"""

from __future__ import annotations

from typing import Generic, Protocol, TypeVar

from repro.domains.semilinear import SemiLinearSet

Element = TypeVar("Element")


class Semiring(Protocol[Element]):
    """A commutative, idempotent, omega-continuous semiring."""

    def zero(self) -> Element:
        """The identity of combine."""

    def one(self) -> Element:
        """The identity of extend."""

    def combine(self, left: Element, right: Element) -> Element:
        """The semiring addition ``(+)``."""

    def extend(self, left: Element, right: Element) -> Element:
        """The semiring multiplication ``(x)``."""

    def star(self, element: Element) -> Element:
        """The Kleene star ``a* = combine over all a^i``."""

    def equal(self, left: Element, right: Element) -> bool:
        """Semantic equality, used to detect fixpoints."""


class SemiLinearSemiring:
    """The semiring (SL, (+), (x), 0, 1) of §5.3 for a fixed dimension."""

    def __init__(self, dimension: int):
        self.dimension = dimension

    def zero(self) -> SemiLinearSet:
        return SemiLinearSet.empty(self.dimension)

    def one(self) -> SemiLinearSet:
        return SemiLinearSet.unit(self.dimension)

    def combine(self, left: SemiLinearSet, right: SemiLinearSet) -> SemiLinearSet:
        return left.combine(right).simplify()

    def extend(self, left: SemiLinearSet, right: SemiLinearSet) -> SemiLinearSet:
        return left.extend(right).simplify()

    def star(self, element: SemiLinearSet) -> SemiLinearSet:
        return element.star()

    def equal(self, left: SemiLinearSet, right: SemiLinearSet) -> bool:
        return left.leq(right) and right.leq(left)


class BooleanSemiring:
    """The two-element semiring ({0,1}, or, and); used by unit tests."""

    def zero(self) -> bool:
        return False

    def one(self) -> bool:
        return True

    def combine(self, left: bool, right: bool) -> bool:
        return left or right

    def extend(self, left: bool, right: bool) -> bool:
        return left and right

    def star(self, element: bool) -> bool:
        return True

    def equal(self, left: bool, right: bool) -> bool:
        return left == right
