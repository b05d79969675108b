"""Semi-linear sets and their commutative idempotent omega-continuous semiring.

A *linear set* ``<u, {v1, ..., vn}>`` denotes ``{u + l1*v1 + ... + ln*vn |
li in N}`` (Def. 5.5); a *semi-linear set* is a finite union of linear sets.
The paper shows (Prop. 5.8) that semi-linear sets with

* ``combine``  (union, written ``(+)`` in the paper),
* ``extend``   (Minkowski sum with union of generators, written ``(x)``), and
* ``star``     (Eqn. (20)),

form a commutative, idempotent, omega-continuous semiring, which is what
Newton's method (Lem. 5.2) requires.  This module implements the domain, the
three operations, the projection ``projSL`` used by the CLIA machinery
(§6.2), symbolic concretization (§5.4), and the subsumption-based
simplification mentioned as optimisation (i) in §7.

Performance notes.  Both classes are hash-consed (:mod:`repro.utils.intern`)
into a *canonical form*: a linear set's generators are deduplicated and
sorted, a semi-linear set's linear sets are deduplicated and sorted.  Equal
values are therefore the same object, equality is a pointer comparison in
the common case, and hashes are computed once.  On top of the canonical
identities, :meth:`SemiLinearSet.simplify` and the subsumption check are
memoized in bounded LRU tables — the solvers re-simplify the same iterates
on every fixpoint round.  Simplification only pairs a linear set with the
sets whose generators include its own (a generator-free point never contains
another set), and subsumption bottoms out in a membership question that
:meth:`LinearSet.contains` settles by exact integer arithmetic where it can;
only the rest become integer-feasibility queries for the solver.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.logic.formulas import Formula, atom_eq, atom_ge, conjunction, disjunction
from repro.logic.terms import LinearExpression
from repro.utils.errors import SolverLimitError
from repro.utils.intern import interner
from repro.utils.lru import BoundedLru
from repro.utils.vectors import BoolVector, IntVector

_LINEAR_SETS = interner("LinearSet")
_SEMILINEAR_SETS = interner("SemiLinearSet")

_SIMPLIFY_MEMO = BoundedLru(4096)
_SUBSUMES_MEMO = BoundedLru(16384)
#: Per-LinearSet membership solver contexts (the asserted skeleton of
#: :meth:`LinearSet.contains`); see the method for the key/assumption split.
_MEMBER_CONTEXTS = BoundedLru(2048)


def semilinear_cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss statistics of the simplification and subsumption memos."""
    return {
        "simplify": _SIMPLIFY_MEMO.stats(),
        "subsumes": _SUBSUMES_MEMO.stats(),
        "member_contexts": _MEMBER_CONTEXTS.stats(),
    }


def clear_semilinear_caches() -> None:
    """Reset the simplification/subsumption memos and membership contexts."""
    _SIMPLIFY_MEMO.clear()
    _SUBSUMES_MEMO.clear()
    _MEMBER_CONTEXTS.clear()


class LinearSet:
    """A linear set ``<offset, generators>``, interned in canonical form.

    Canonicalization drops zero generators (they do not change the denoted
    set), deduplicates via a hash set, and sorts — so two constructions that
    denote the same ``<u, V>`` always produce the identical object, and
    canonicalization is idempotent by construction.
    """

    __slots__ = ("offset", "generators", "_hash", "__weakref__")

    offset: IntVector
    generators: Tuple[IntVector, ...]

    def __new__(cls, offset: IntVector, generators: Iterable[IntVector] = ()):
        cleaned = tuple(
            sorted(
                {generator for generator in generators if not generator.is_zero()},
                key=lambda vector: vector.values,
            )
        )
        key = (offset, cleaned)
        cached = _LINEAR_SETS.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "generators", cleaned)
        object.__setattr__(self, "_hash", hash(key))
        return _LINEAR_SETS.add(key, self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LinearSet instances are immutable")

    def __reduce__(self):
        return (LinearSet, (self.offset, self.generators))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, LinearSet)
            and self.offset == other.offset
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def dimension(self) -> int:
        return self.offset.dimension

    def sample(self, max_coefficient: int = 2) -> Iterator[IntVector]:
        """Enumerate a few concrete members (testing helper)."""
        def rec(index: int, current: IntVector) -> Iterator[IntVector]:
            if index == len(self.generators):
                yield current
                return
            for coefficient in range(max_coefficient + 1):
                yield from rec(
                    index + 1, current + self.generators[index].scale(coefficient)
                )

        yield from rec(0, self.offset)

    def contains(self, vector: IntVector) -> bool:
        """Exact membership: is ``vector - offset`` a sum of generators?

        :func:`_member_without_solver` settles most questions by exact
        integer arithmetic.  The rest are decided by integer feasibility of
        the defining constraints — ``o_j = offset_j + sum lambda_i * g_i[j]``
        with ``lambda_i >= 0`` — which depend only on ``self``, so they live
        in a cached :class:`~repro.logic.solver.SolverContext` asserted once
        per (interned) linear set; each query only swaps the ``o_j = v_j``
        assumption atoms, which lets the solver's lemma/cache layers carry
        work across the offsets that subsumption asks about.
        """
        if vector.dimension != self.dimension:
            return False
        if not self.generators:
            return self.offset == vector
        difference = tuple(
            value - base for value, base in zip(vector.values, self.offset.values)
        )
        verdict = _member_without_solver(difference, self.generators)
        if verdict is not None:
            return verdict
        context = _MEMBER_CONTEXTS.get(self)
        if context is None:
            from repro.logic.solver import SolverContext

            context = SolverContext()
            names = [f"_lam_member_{i}" for i in range(len(self.generators))]
            for coordinate in range(self.dimension):
                expression = LinearExpression.constant_expr(self.offset[coordinate])
                for name, generator in zip(names, self.generators):
                    expression = expression + LinearExpression(
                        {name: generator[coordinate]}, 0
                    )
                output = LinearExpression.variable(f"_member_o{coordinate}")
                context.assert_formula(atom_eq(output, expression))
            for name in names:
                context.assert_formula(atom_ge(LinearExpression.variable(name), 0))
            _MEMBER_CONTEXTS.put(self, context)
        assumptions = [
            atom_eq(LinearExpression.variable(f"_member_o{coordinate}"), int(value))
            for coordinate, value in enumerate(vector)
        ]
        return context.check(assumptions).is_sat

    def project(self, mask: BoolVector) -> "LinearSet":
        """``projS``: zero out the coordinates where ``mask`` is false (§6.2)."""
        return LinearSet(
            self.offset.mask(mask),
            tuple(generator.mask(mask) for generator in self.generators),
        )

    def translate(self, other: "LinearSet") -> "LinearSet":
        """Minkowski sum of two linear sets (a single linear set again)."""
        return LinearSet(
            self.offset + other.offset, self.generators + other.generators
        )

    def symbolic(self, outputs: Sequence[LinearExpression], tag: str) -> Formula:
        """Symbolic concretization (§5.4): outputs = offset + sum lambda*gen."""
        constraints: List[Formula] = []
        names = [f"_lam_{tag}_{i}" for i in range(len(self.generators))]
        for coordinate, output in enumerate(outputs):
            expression = LinearExpression.constant_expr(self.offset[coordinate])
            for name, generator in zip(names, self.generators):
                expression = expression + LinearExpression(
                    {name: generator[coordinate]}, 0
                )
            constraints.append(atom_eq(output, expression))
        for name in names:
            constraints.append(atom_ge(LinearExpression.variable(name), 0))
        return conjunction(constraints)

    def _sort_key(self) -> Tuple:
        return (self.offset.values, tuple(g.values for g in self.generators))

    def __str__(self) -> str:
        generators = ", ".join(str(list(g.values)) for g in self.generators)
        return f"<{list(self.offset.values)}, {{{generators}}}>"

    def __repr__(self) -> str:
        return f"LinearSet(offset={self.offset!r}, generators={self.generators!r})"


class SemiLinearSet:
    """A finite union of linear sets, interned in canonical (sorted) form.

    The empty union is the semiring ``0``; ``{<0, {}>}`` is the semiring ``1``.
    """

    __slots__ = ("_linear_sets", "_dimension", "_hash", "__weakref__")

    def __new__(cls, linear_sets: Iterable[LinearSet] = (), dimension: int = 0):
        # Deduplicate (interned linear sets hash/compare fast) and sort so
        # that order of construction never influences identity.
        unique = tuple(
            sorted(dict.fromkeys(linear_sets), key=LinearSet._sort_key)
        )
        if unique:
            dimension = unique[0].dimension
        key = (unique, dimension)
        cached = _SEMILINEAR_SETS.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "_linear_sets", unique)
        object.__setattr__(self, "_dimension", dimension)
        object.__setattr__(self, "_hash", hash(unique))
        return _SEMILINEAR_SETS.add(key, self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SemiLinearSet instances are immutable")

    def __reduce__(self):
        return (SemiLinearSet, (self._linear_sets, self._dimension))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def empty(dimension: int) -> "SemiLinearSet":
        """The semiring zero: the empty set of vectors."""
        return SemiLinearSet((), dimension)

    @staticmethod
    def unit(dimension: int) -> "SemiLinearSet":
        """The semiring one: the singleton {zero vector}."""
        return SemiLinearSet([LinearSet(IntVector.zero(dimension), ())], dimension)

    @staticmethod
    def singleton(vector: IntVector) -> "SemiLinearSet":
        """The singleton set containing one concrete vector."""
        return SemiLinearSet([LinearSet(vector, ())], vector.dimension)

    # -- accessors -----------------------------------------------------------

    @property
    def linear_sets(self) -> Tuple[LinearSet, ...]:
        return self._linear_sets

    @property
    def dimension(self) -> int:
        return self._dimension

    def is_empty(self) -> bool:
        return not self._linear_sets

    @property
    def size(self) -> int:
        """The size measure used in §5.3: sum over linear sets of |V_i| + 1."""
        return sum(len(ls.generators) + 1 for ls in self._linear_sets)

    # -- semiring operations --------------------------------------------------

    def combine(self, other: "SemiLinearSet") -> "SemiLinearSet":
        """``(+)``: set union."""
        self._check(other)
        if self is other:
            return self
        if not other._linear_sets and self._dimension >= other._dimension:
            return self
        if not self._linear_sets and other._dimension >= self._dimension:
            return other
        return SemiLinearSet(
            self._linear_sets + other._linear_sets,
            max(self._dimension, other._dimension),
        )

    def extend(self, other: "SemiLinearSet") -> "SemiLinearSet":
        """``(x)``: element-wise sums (Minkowski sum), per Eqn. before (20)."""
        self._check(other)
        if self.is_empty() or other.is_empty():
            return SemiLinearSet.empty(max(self._dimension, other._dimension))
        return SemiLinearSet(
            [
                left.translate(right)
                for left in self._linear_sets
                for right in other._linear_sets
            ],
            self._dimension,
        )

    def star(self) -> "SemiLinearSet":
        """Kleene star (Eqn. (20)): iterated extension including zero copies."""
        offset = IntVector.zero(self._dimension)
        generators: List[IntVector] = []
        for linear_set in self._linear_sets:
            if not linear_set.offset.is_zero():
                generators.append(linear_set.offset)
            generators.extend(linear_set.generators)
        return SemiLinearSet([LinearSet(offset, tuple(generators))], self._dimension)

    # -- domain operations ----------------------------------------------------

    def project(self, mask: BoolVector) -> "SemiLinearSet":
        """``projSL`` (§6.2): zero out coordinates where ``mask`` is false."""
        return SemiLinearSet(
            [linear_set.project(mask) for linear_set in self._linear_sets],
            self._dimension,
        )

    def contains(self, vector: IntVector) -> bool:
        return any(linear_set.contains(vector) for linear_set in self._linear_sets)

    def leq(self, other: "SemiLinearSet") -> bool:
        """The induced order ``a <= b  iff  a (+) b = b`` — here syntactic:
        every linear set of ``self`` appears in (or is subsumed by) ``other``."""
        if self is other:
            return True
        containers = _containers(other._linear_sets)
        return all(
            linear_set in other._linear_sets
            or any(
                _subsumes(container, linear_set)
                for _, container, generators in containers
                if generators.issuperset(linear_set.generators)
            )
            for linear_set in self._linear_sets
        )

    def simplify(self) -> "SemiLinearSet":
        """Remove linear sets subsumed by another linear set (§7, opt. (i)).

        Subsumption is checked with a sound, incomplete criterion (see
        :func:`_subsumes`), so simplification never changes the denoted set.
        Only the pairs that criterion can accept are tested: the container
        has generators, and they include the candidate's.  Results are
        memoized on the interned identity of ``self``; the result is itself
        subsumption-free, so it is recorded as its own fixpoint and
        re-simplifying it is a cache hit.
        """
        # The memo key includes the dimension: __eq__ deliberately ignores it
        # (empty sets of any dimension are interchangeable as values), but the
        # *result* returned here must keep self's dimension.
        memo_key = (self._linear_sets, self._dimension)
        cached = _SIMPLIFY_MEMO.get(memo_key)
        if cached is not None:
            return cached
        sets = self._linear_sets
        containers = _containers(sets)
        kept: List[LinearSet] = []
        for index, candidate in enumerate(sets):
            subsumed = False
            for other_index, other, generators in containers:
                if other_index == index:
                    continue
                if not generators.issuperset(candidate.generators):
                    continue
                if not _subsumes(other, candidate):
                    continue
                if index < other_index and _subsumes(candidate, other):
                    # Equal denotations: keep the earlier of the two copies.
                    continue
                subsumed = True
                break
            if not subsumed:
                kept.append(candidate)
        result = self if len(kept) == len(sets) else SemiLinearSet(kept, self._dimension)
        _SIMPLIFY_MEMO.put(memo_key, result)
        if result is not self:
            _SIMPLIFY_MEMO.put((result._linear_sets, result._dimension), result)
        return result

    def symbolic(self, outputs: Sequence[LinearExpression], tag: str = "") -> Formula:
        """Symbolic concretization ``gamma_hat`` (Eqn. (26)).

        ``tag`` namespaces the existential ``lambda`` parameters so that two
        different semi-linear sets can be concretized inside one formula (as
        ``LessThan#`` does) without their parameters colliding.
        """
        if not self._linear_sets:
            from repro.logic.formulas import FALSE

            return FALSE
        return disjunction(
            [
                linear_set.symbolic(outputs, tag=f"{tag}{index}")
                for index, linear_set in enumerate(self._linear_sets)
            ]
        )

    def sample(self, max_coefficient: int = 2, limit: int = 200) -> List[IntVector]:
        """A few concrete member vectors (testing helper)."""
        members: List[IntVector] = []
        for linear_set in self._linear_sets:
            for vector in linear_set.sample(max_coefficient):
                if vector not in members:
                    members.append(vector)
                if len(members) >= limit:
                    return members
        return members

    # -- misc -----------------------------------------------------------------

    def _check(self, other: "SemiLinearSet") -> None:
        if (
            not self.is_empty()
            and not other.is_empty()
            and self._dimension != other._dimension
        ):
            raise ValueError("semi-linear sets have different dimensions")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SemiLinearSet):
            return NotImplemented
        # Canonical form makes the tuple comparison order-insensitive; the
        # dimension is deliberately not compared (two empty sets of different
        # dimensions are interchangeable, matching the semiring's 0).
        return self._linear_sets == other._linear_sets

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._linear_sets:
            return "{}"
        return "{" + ", ".join(str(ls) for ls in self._linear_sets) + "}"

    def __repr__(self) -> str:
        return f"SemiLinearSet({self})"


def _containers(
    linear_sets: Sequence[LinearSet],
) -> List[Tuple[int, LinearSet, frozenset[IntVector]]]:
    """The linear sets that can subsume another: those with generators.

    A generator-free point contains only itself, and the linear sets of a
    canonical union are pairwise distinct.  Each entry carries its index
    (for the equal-denotation tie-break) and its generators as a set (for
    the inclusion test of :func:`_subsumes_uncached`).
    """
    return [
        (index, linear_set, frozenset(linear_set.generators))
        for index, linear_set in enumerate(linear_sets)
        if linear_set.generators
    ]


def _subsumes(container: LinearSet, candidate: LinearSet) -> bool:
    """Sound check that ``candidate``'s denotation is inside ``container``'s.

    The criterion: every generator of ``candidate`` must literally be a
    generator of ``container``, and ``candidate``'s offset must be reachable
    from ``container``'s offset using ``container``'s generators (a
    :meth:`LinearSet.contains` question).  This is sufficient but not
    necessary, which is all the simplification needs.  Verdicts are memoized
    on the interned pair — the fixpoint solvers re-ask the same pairs on
    every iteration, and a membership question can still reach the solver.
    """
    if container is candidate:
        return True
    if container.dimension != candidate.dimension:
        return False
    key = (container, candidate)
    cached = _SUBSUMES_MEMO.get(key)
    if cached is not None:
        return cached
    verdict = _subsumes_uncached(container, candidate)
    _SUBSUMES_MEMO.put(key, verdict)
    return verdict


def _subsumes_uncached(container: LinearSet, candidate: LinearSet) -> bool:
    container_generators = set(container.generators)
    if not all(generator in container_generators for generator in candidate.generators):
        return False
    try:
        return container.contains(candidate.offset)
    except SolverLimitError:  # pragma: no cover - defensive
        return False


#: The one-sign, one-coordinate membership rung builds a reachability table
#: over ``0..|d|``; a larger target falls through to the solver.
_COIN_TABLE_LIMIT = 1024


def _member_without_solver(
    difference: Tuple[int, ...], generators: Sequence[IntVector]
) -> Optional[bool]:
    """Decide ``difference = sum lambda_i * generators[i]`` over ``lambda in N``.

    Each rung is exact; one that cannot decide falls through to the next,
    and ``None`` means none decided (the caller asks the solver).
    """
    if not any(difference):
        return True
    rows = [generator.values for generator in generators]
    live: List[Tuple[int, bool]] = []
    for coordinate, target in enumerate(difference):
        positive = any(row[coordinate] > 0 for row in rows)
        negative = any(row[coordinate] < 0 for row in rows)
        # No generator moves this coordinate the way the target needs.
        if (target > 0 and not positive) or (target < 0 and not negative):
            return False
        if positive or negative:
            live.append((coordinate, positive and negative))
    if difference in rows:
        return True
    if len(live) == 1:
        # Every generator is zero off this coordinate (zero generators are
        # dropped), and the sign rung zeroed the target there too.
        coordinate, mixed = live[0]
        coins = {abs(row[coordinate]) for row in rows}
        target = abs(difference[coordinate])
        if mixed:
            # Generators of both signs generate the group gcd * Z.
            return target % reduce(gcd, coins) == 0
        return _coin_reachable(target, coins)
    return _unique_combination(difference, rows)


def _coin_reachable(target: int, coins: Iterable[int]) -> Optional[bool]:
    """Is ``target`` a sum of ``coins`` (with repetition)?  ``None`` above
    :data:`_COIN_TABLE_LIMIT`."""
    if target > _COIN_TABLE_LIMIT:
        return None
    coins = sorted(coins)
    reachable = bytearray(target + 1)
    reachable[0] = 1
    for amount in range(1, target + 1):
        for coin in coins:
            if coin > amount:
                break
            if reachable[amount - coin]:
                reachable[amount] = 1
                break
    return bool(reachable[target])


def _unique_combination(
    difference: Tuple[int, ...], rows: Sequence[Tuple[int, ...]]
) -> Optional[bool]:
    """Gauss-Jordan elimination of ``sum lambda_i * rows[i] = difference`` over Q.

    No rational solution means not a member.  Linearly independent rows fix
    the one rational ``lambda``: a member iff it is integral and ``>= 0``.
    Dependent rows leave ``lambda`` free, so the question stays open.
    """
    unknowns = len(rows)
    # One equation per coordinate: the coefficients of lambda, then the target.
    matrix = [
        [Fraction(row[coordinate]) for row in rows] + [Fraction(target)]
        for coordinate, target in enumerate(difference)
    ]
    rank = 0
    for column in range(unknowns):
        pivot = next(
            (index for index in range(rank, len(matrix)) if matrix[index][column]),
            None,
        )
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank][column]
        matrix[rank] = [entry / lead for entry in matrix[rank]]
        for index, equation in enumerate(matrix):
            factor = equation[column]
            if index != rank and factor:
                matrix[index] = [
                    entry - factor * pivot_entry
                    for entry, pivot_entry in zip(equation, matrix[rank])
                ]
        rank += 1
    if any(equation[unknowns] for equation in matrix[rank:]):
        return False
    if rank < unknowns:
        return None
    return all(
        equation[unknowns].denominator == 1 and equation[unknowns] >= 0
        for equation in matrix[:unknowns]
    )
