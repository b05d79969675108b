"""The ``AbstractDomain`` protocol: pluggable abstractions for the GFA solver.

The paper's approximate method (§4.3) is a *recipe*, not a fixed algorithm:
pick any over-approximating abstract domain, solve the grammar-flow-analysis
equations by chaotic iteration (with widening when the domain has infinite
ascending chains), and run Alg. 1's final check against the examples.  The
result is sound for any such domain — ``UNREALIZABLE`` answers are always
trustworthy — and two-sided exactly when the domain is exact.

Historically the repo hard-wired one instantiation (the reduced product of
intervals and congruences) into :mod:`repro.unreal.approximate`.  This module
extracts the seam: :class:`AbstractDomain` names the operations the generic
solver needs (lattice ops, a transfer function per grammar production, and a
concretization check against the examples), and
:mod:`repro.domains.registry` resolves implementations by name, mirroring the
engine registry.  The built-in domains are:

========== ======================================== =======================
name       integer abstraction                      check
========== ======================================== =======================
numeric    intervals x congruences (reduced product) symbolic, via QF-LIA
interval   per-example integer boxes                 direct, no ILP calls
powerset   finite sets of output vectors (capped)    direct, two-sided
product    reduced product of any two domains        component-wise
========== ======================================== =======================

Runnable example — a LimitedPlus-style problem (the grammar derives at most
``x + 1`` but the spec demands ``x + 5``) refuted by the pure interval
domain without a single ILP call:

    >>> from repro import parse_sygus, ExampleSet
    >>> from repro.unreal.approximate import check_examples_abstract
    >>> problem = parse_sygus('''
    ...   (set-logic LIA)
    ...   (synth-fun f ((x Int)) Int ((Start Int (x 1 (+ x 1)))))
    ...   (declare-var x Int)
    ...   (constraint (= (f x) (+ x 5)))
    ...   (check-synth)''', name="plus-budget")
    >>> result = check_examples_abstract(
    ...     problem, ExampleSet.of({"x": 0}), domain="interval")
    >>> result.verdict.value
    'unrealizable'

(On ``x = 0`` every derivable term lies in ``[0, 1]`` while the spec demands
``f(0) = 5``.  The running example of §1/§2 — every term a multiple of
``3x`` — needs the congruence component of the default ``numeric`` domain
instead: boxes cannot see residue classes.  Domains are complementary, which
is what the staged portfolio exploits.)
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

from repro.domains.boolvectors import BoolVectorSet
from repro.grammar.alphabet import Sort
from repro.grammar.rtg import Production
from repro.semantics.examples import ExampleSet
from repro.sygus.spec import Specification
from repro.unreal.result import CheckResult
from repro.utils.errors import SemanticsError
from repro.utils.vectors import BoolVector, IntVector


class AbstractDomain(ABC):
    """One over-approximating abstraction of the GFA semantics (§4.3).

    A domain supplies values for every nonterminal sort, the lattice
    operations the fixpoint driver needs, a transfer function per grammar
    production, and the final concretization check of Alg. 1.  Soundness
    contract: every operation must *over-approximate* the concrete vector
    semantics of :mod:`repro.semantics.evaluator` — the generic solver then
    guarantees that an ``UNREALIZABLE`` verdict from :meth:`check` is
    correct (Thm. 4.5(1)).  A domain may only return ``REALIZABLE`` when its
    abstraction was exact for the whole solve (Thm. 4.5(2)).

    Instances may carry per-check state (e.g. an exactness flag), so
    consumers create a fresh domain per check via
    :func:`repro.domains.registry.resolve_domain`.
    """

    #: Set by :func:`repro.domains.registry.register_domain`.
    registry_name: str = ""

    @property
    def name(self) -> str:
        """The registry/display name of the domain."""
        return self.registry_name or type(self).__name__

    # -- lattice --------------------------------------------------------------

    @abstractmethod
    def bottom(self, sort: Sort, dimension: int) -> object:
        """The least value for a nonterminal of ``sort`` over ``dimension`` examples."""

    @abstractmethod
    def join(self, left: object, right: object) -> object:
        """Least upper bound of two values of the same sort."""

    def widen(self, previous: object, current: object) -> object:
        """Widening ``previous (widen) current``; defaults to plain join.

        Domains with infinite ascending chains (intervals) must override
        this for the fixpoint iteration to terminate; finite-chain domains
        (Boolean vector sets, capped powersets, congruences) can keep the
        join default.
        """
        return self.join(previous, current)

    @abstractmethod
    def equal(self, left: object, right: object) -> bool:
        """Semantic equality, used by the fixpoint driver to detect convergence."""

    # -- semantics ------------------------------------------------------------

    @abstractmethod
    def transfer(
        self,
        production: Production,
        args: Sequence[object],
        examples: ExampleSet,
    ) -> object:
        """The abstract transformer of one grammar production.

        ``args`` holds the current abstract values of the production's
        argument nonterminals, in order.  Must over-approximate applying the
        production's operator to any combination of concrete vectors drawn
        from the concretizations of ``args``.
        """

    def pre_check(self, examples: ExampleSet) -> "CheckResult | None":
        """A chance to bail out before the fixpoint solve (default: never).

        Domains whose cost explodes with the example count (the powerset
        domain enumerates up to ``2^|E|`` Boolean vectors) return an
        ``UNKNOWN`` :class:`~repro.unreal.result.CheckResult` here instead
        of attempting a hopeless solve.
        """
        del examples
        return None

    @abstractmethod
    def check(
        self, start_value: object, spec: Specification, examples: ExampleSet
    ) -> CheckResult:
        """Alg. 1 lines 3-5: decide the verdict from the start symbol's value.

        Must return ``UNREALIZABLE`` only when no concrete output vector in
        the concretization of ``start_value`` satisfies the specification on
        every example, and ``REALIZABLE`` only when the abstraction is exact
        and some vector does.
        """


class ExampleVectorDomain(AbstractDomain):
    """Shared scaffolding for domains over per-example value vectors.

    Every built-in domain abstracts the same concrete object — the vector of
    a term's outputs across the example set (§6.1) — and they all use the
    exact, finite Boolean-vector-set domain for Boolean-sorted nonterminals.
    This base class implements the sort dispatch and the per-production
    transfer once; subclasses only provide the integer-sorted hooks:

    * :meth:`int_bottom`, :meth:`int_join`, :meth:`int_widen`,
      :meth:`int_equal` — the integer lattice;
    * :meth:`from_vector` — abstraction of a single concrete vector
      (``Num``/``Var``/``NegVar`` leaves);
    * :meth:`int_add` — the ``Plus#`` transformer;
    * :meth:`ite` — the ``IfThenElse#`` transformer (guard vectors are exact);
    * :meth:`compare` — comparison operators, producing the set of Boolean
      truth-value vectors the comparison can take.
    """

    # -- integer-sort hooks ----------------------------------------------------

    @abstractmethod
    def int_bottom(self, dimension: int) -> object: ...

    @abstractmethod
    def int_join(self, left: object, right: object) -> object: ...

    def int_widen(self, previous: object, current: object) -> object:
        return self.int_join(previous, current)

    @abstractmethod
    def int_equal(self, left: object, right: object) -> bool: ...

    @abstractmethod
    def from_vector(self, vector: IntVector) -> object: ...

    @abstractmethod
    def int_add(self, left: object, right: object) -> object: ...

    @abstractmethod
    def ite(
        self,
        guards: BoolVectorSet,
        then_value: object,
        else_value: object,
        dimension: int,
    ) -> object: ...

    @abstractmethod
    def compare(
        self, name: str, left: object, right: object, dimension: int
    ) -> BoolVectorSet: ...

    # -- sort dispatch ---------------------------------------------------------

    def bottom(self, sort: Sort, dimension: int) -> object:
        if sort == Sort.BOOL:
            return BoolVectorSet.empty(dimension)
        return self.int_bottom(dimension)

    def join(self, left: object, right: object) -> object:
        if isinstance(left, BoolVectorSet) and isinstance(right, BoolVectorSet):
            return left.combine(right)
        if isinstance(left, BoolVectorSet) or isinstance(right, BoolVectorSet):
            raise SemanticsError("cannot join values of different sorts")
        return self.int_join(left, right)

    def widen(self, previous: object, current: object) -> object:
        if isinstance(previous, BoolVectorSet):
            return self.join(previous, current)
        return self.int_widen(previous, current)

    def equal(self, left: object, right: object) -> bool:
        if isinstance(left, BoolVectorSet):
            return left == right
        return self.int_equal(left, right)

    # -- the per-production transfer ------------------------------------------

    def transfer(
        self,
        production: Production,
        args: Sequence[object],
        examples: ExampleSet,
    ) -> object:
        name = production.symbol.name
        payload = production.symbol.payload
        dimension = len(examples)

        if name == "Num":
            return self.from_vector(IntVector.constant(int(payload), dimension))
        if name == "Var":
            return self.from_vector(examples.projection(str(payload)))
        if name == "NegVar":
            return self.from_vector(-examples.projection(str(payload)))
        if name == "BoolConst":
            return BoolVectorSet.singleton(
                BoolVector.constant(bool(payload), dimension)
            )
        if name == "Pass":
            return args[0]
        if name == "Plus":
            result = args[0]
            for arg in args[1:]:
                result = self.int_add(result, arg)
            return result
        if name == "IfThenElse":
            guards, then_value, else_value = args
            assert isinstance(guards, BoolVectorSet)
            return self.ite(guards, then_value, else_value, dimension)
        if name == "And":
            return args[0].conjoin(args[1])  # type: ignore[union-attr]
        if name == "Or":
            return args[0].disjoin(args[1])  # type: ignore[union-attr]
        if name == "Not":
            return args[0].negate()  # type: ignore[union-attr]
        if name in ("LessThan", "LessEq", "GreaterThan", "GreaterEq", "Equal"):
            left, right = args
            return self.compare(name, left, right, dimension)
        raise SemanticsError(f"no abstract transformer for operator {name}")


def masked_ite_join(
    guards: BoolVectorSet,
    select: "callable",
    bottom: object,
    join: "callable",
) -> object:
    """The generic ``IfThenElse#`` shape: join ``select(guard)`` over all guards.

    Domains whose values support a per-component ``select(mask)`` (boxes,
    interval-congruence products) share this transfer; the powerset domain
    enumerates concrete triples instead.  As ``select`` and ``join`` act per
    component, component ``i`` of the result depends only on whether some
    guard is true at ``i`` and whether some guard is false there.  So two
    masks OR-ed from the guards' packed bits stand in for the guards:
    ``select(some_true)`` takes the then-value wherever a guard does, and
    joining ``select(then_only)`` adds the else-value where guards disagree
    — at most two selects and one join for any number of guards.
    """
    if guards.is_empty():
        return bottom
    dimension = guards.dimension
    full = (1 << dimension) - 1
    some_true = 0
    some_false = 0
    for guard in guards.vectors:
        bits = guard.bits
        some_true |= bits
        some_false |= full & ~bits
    result = select(BoolVector.from_packed(some_true, dimension))
    then_only = some_true & ~some_false
    if then_only != some_true:
        result = join(result, select(BoolVector.from_packed(then_only, dimension)))
    return result
