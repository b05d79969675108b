"""Tests for the abstract domains: semi-linear sets, Boolean-vector sets,
the CLIA abstract semantics, and the approximate numeric domains."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.domains.boolvectors import BoolVectorSet
from repro.domains.clia import CliaInterpretation
from repro.domains.numeric import Congruence, Interval, ProductValue
from repro.domains.semilinear import (
    _COIN_TABLE_LIMIT,
    LinearSet,
    SemiLinearSet,
    _member_without_solver,
    _subsumes,
)
from repro.semantics.examples import ExampleSet
from repro.utils.vectors import BoolVector, IntVector


def sl(*linear_sets) -> SemiLinearSet:
    return SemiLinearSet(linear_sets)


def ls(offset, *generators) -> LinearSet:
    return LinearSet(IntVector(offset), tuple(IntVector(g) for g in generators))


# Offsets may be negative; generators are kept non-negative so that the
# membership queries used as oracles stay bounded (and therefore fast).
small_offsets = st.lists(st.integers(-5, 5), min_size=2, max_size=2).map(IntVector)
small_generators = st.lists(st.integers(0, 5), min_size=2, max_size=2).map(IntVector)
small_linear_sets = st.tuples(
    small_offsets, st.lists(small_generators, min_size=0, max_size=2)
).map(lambda pair: LinearSet(pair[0], tuple(pair[1])))
small_semilinear = st.lists(small_linear_sets, min_size=0, max_size=2).map(
    lambda sets: SemiLinearSet(sets, dimension=2)
)


class TestLinearSet:
    def test_zero_generators_dropped(self):
        linear = ls([1, 2], [0, 0], [1, 1])
        assert len(linear.generators) == 1

    def test_contains_offset(self):
        assert ls([1, 2], [3, 4]).contains(IntVector([1, 2]))

    def test_contains_combination(self):
        assert ls([0, 0], [3, 6]).contains(IntVector([9, 18]))
        assert not ls([0, 0], [3, 6]).contains(IntVector([3, 5]))

    def test_projection_zeroes_components(self):
        projected = ls([1, 2], [3, 4]).project(BoolVector([True, False]))
        assert projected.offset == IntVector([1, 0])
        assert projected.generators == (IntVector([3, 0]),)


class TestSemiLinearSet:
    def test_zero_and_one(self):
        zero = SemiLinearSet.empty(2)
        one = SemiLinearSet.unit(2)
        value = sl(ls([1, 2], [3, 4]))
        assert zero.combine(value) == value
        assert one.extend(value) == value
        assert zero.extend(value).is_empty()

    def test_combine_is_union(self):
        left = sl(ls([1, 0]))
        right = sl(ls([0, 1]))
        combined = left.combine(right)
        assert combined.contains(IntVector([1, 0]))
        assert combined.contains(IntVector([0, 1]))

    def test_extend_is_minkowski_sum(self):
        left = sl(ls([1, 0], [2, 0]))
        right = sl(ls([0, 3]))
        extended = left.extend(right)
        assert extended.contains(IntVector([1, 3]))
        assert extended.contains(IntVector([3, 3]))
        assert not extended.contains(IntVector([1, 0]))

    def test_star_contains_all_iterates(self):
        value = sl(ls([3, 6]))
        starred = value.star()
        for k in range(4):
            assert starred.contains(IntVector([3 * k, 6 * k]))

    def test_star_matches_paper_footnote(self):
        """Footnote 3: the equation X = {3} (x) X (+) {0} has solution {3}* (x) {0}."""
        three = SemiLinearSet.singleton(IntVector([3]))
        zero = SemiLinearSet.singleton(IntVector([0]))
        solution = three.star().extend(zero)
        assert solution.contains(IntVector([0]))
        assert solution.contains(IntVector([9]))
        assert not solution.contains(IntVector([4]))

    def test_simplify_removes_subsumed_sets(self):
        value = sl(ls([0, 0], [1, 1]), ls([2, 2], [1, 1]), ls([5, 7]))
        simplified = value.simplify()
        assert len(simplified.linear_sets) == 2
        # Every member of the original is still a member after simplification.
        for vector in value.sample(max_coefficient=2):
            assert simplified.contains(vector)

    def test_symbolic_concretization_agrees_with_membership(self):
        from repro.logic.solver import check_sat
        from repro.logic.terms import LinearExpression

        value = sl(ls([1, 2], [2, 0]), ls([0, 0], [0, 5]))
        outputs = [LinearExpression.variable("o0"), LinearExpression.variable("o1")]
        for vector in [IntVector([5, 2]), IntVector([0, 10]), IntVector([1, 3])]:
            from repro.logic.formulas import atom_eq, conjunction

            formula = conjunction(
                [value.symbolic(outputs)]
                + [atom_eq(outputs[i], int(vector[i])) for i in range(2)]
            )
            assert check_sat(formula).is_sat == value.contains(vector)

    @settings(max_examples=15, deadline=None)
    @given(small_semilinear, small_semilinear)
    def test_combine_commutes(self, left, right):
        assert left.combine(right) == right.combine(left)

    @settings(max_examples=15, deadline=None)
    @given(small_semilinear, small_semilinear, small_semilinear)
    def test_extend_distributes_over_combine_on_samples(self, a, b, c):
        """(a (+) b) (x) c and (a (x) c) (+) (b (x) c) denote the same set."""
        left = a.combine(b).extend(c)
        right = a.extend(c).combine(b.extend(c))
        for vector in left.sample(max_coefficient=1, limit=20):
            assert right.contains(vector)
        for vector in right.sample(max_coefficient=1, limit=20):
            assert left.contains(vector)

    @settings(max_examples=15, deadline=None)
    @given(small_semilinear)
    def test_simplify_preserves_samples(self, value):
        simplified = value.simplify()
        for vector in value.sample(max_coefficient=1, limit=20):
            assert simplified.contains(vector)


def _pairwise_simplify(value: SemiLinearSet) -> SemiLinearSet:
    """The all-pairs subsumption loop of ``simplify``, frozen as an oracle."""
    sets = value.linear_sets
    kept = []
    for index, candidate in enumerate(sets):
        subsumed = False
        for other_index, other in enumerate(sets):
            if other_index == index:
                continue
            if not _subsumes(other, candidate):
                continue
            if _subsumes(candidate, other) and index < other_index:
                continue
            subsumed = True
            break
        if not subsumed:
            kept.append(candidate)
    return SemiLinearSet(kept, value.dimension)


def _pairwise_leq(left: SemiLinearSet, right: SemiLinearSet) -> bool:
    """The all-pairs loop of ``leq``, frozen as an oracle."""
    if left is right:
        return True
    return all(
        linear_set in right.linear_sets
        or any(_subsumes(candidate, linear_set) for candidate in right.linear_sets)
        for linear_set in left.linear_sets
    )


def _solver_contains(linear_set: LinearSet, vector: IntVector) -> bool:
    """Membership by symbolic concretization and ``check_sat`` alone."""
    from repro.logic.formulas import atom_eq, conjunction
    from repro.logic.solver import check_sat
    from repro.logic.terms import LinearExpression

    outputs = [LinearExpression.variable(f"o{i}") for i in range(vector.dimension)]
    formula = conjunction(
        [linear_set.symbolic(outputs, tag="oracle")]
        + [atom_eq(output, int(value)) for output, value in zip(outputs, vector)]
    )
    return check_sat(formula).is_sat


@st.composite
def generator_pools(draw, vectors):
    """One to three random generators, plus up to two combinations of them
    (``g + k*h``), so that some pools are linearly dependent."""
    base = draw(st.lists(vectors, min_size=1, max_size=3))
    combinations = st.tuples(
        st.sampled_from(base), st.sampled_from(base), st.sampled_from([-1, 1, 2])
    ).map(lambda parts: parts[0] + parts[1].scale(parts[2]))
    return base + draw(st.lists(combinations, max_size=2))


@st.composite
def mixed_semilinear(draw, dimension=None):
    """Points and generator-bearing sets over a shared generator pool.

    Dimensions 1-4, entries in [-6, 6], generators of either sign; some
    offsets are another set's offset moved along pool generators, so that
    subsumption holds often enough to matter.
    """
    if dimension is None:
        dimension = draw(st.integers(1, 4))
    vectors = st.lists(
        st.integers(-6, 6), min_size=dimension, max_size=dimension
    ).map(IntVector)
    pool = draw(generator_pools(vectors))
    sets = []
    for _ in range(draw(st.integers(1, 5))):
        generators = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
        if sets and draw(st.booleans()):
            offset = draw(st.sampled_from(sets)).offset
            for generator in draw(st.lists(st.sampled_from(pool), max_size=2)):
                offset = offset + generator
        else:
            offset = draw(vectors)
        sets.append(LinearSet(offset, generators))
    return SemiLinearSet(sets, dimension)


@st.composite
def membership_questions(draw):
    """A linear set and a vector: its offset moved along some generators,
    and half the time nudged off the lattice."""
    dimension = draw(st.integers(1, 4))
    vectors = st.lists(
        st.integers(-6, 6), min_size=dimension, max_size=dimension
    ).map(IntVector)
    generators = draw(generator_pools(vectors))
    offset = draw(vectors)
    vector = offset
    steps = st.lists(st.sampled_from(generators), min_size=1, max_size=3)
    for generator in draw(steps):
        vector = vector + generator
    if draw(st.booleans()):
        nudges = st.lists(st.integers(-1, 1), min_size=dimension, max_size=dimension)
        vector = vector + IntVector(draw(nudges))
    return LinearSet(offset, generators), vector


ABOVE_TABLE = _COIN_TABLE_LIMIT + 1

# (offset, generators, vector, member, decided): each case is settled by one
# rung of ``LinearSet.contains``; ``decided=False`` cases reach the solver.
MEMBERSHIP_CASES = {
    "offset itself": ([1, 2], [[1, 0]], [1, 2], True, True),
    "sign: no negative generator": ([0, 0], [[1, 0], [0, 1]], [-1, 0], False, True),
    "sign: dead coordinate": ([0, 0, 0], [[1, 0, 0]], [1, 0, 2], False, True),
    "difference is a generator": ([0, 0], [[2, 3], [1, 1]], [2, 3], True, True),
    "mixed signs, gcd divides": ([0, 0], [[4, 0], [-6, 0]], [2, 0], True, True),
    "mixed signs, gcd misses": ([0, 0], [[4, 0], [-6, 0]], [3, 0], False, True),
    "coins reach": ([0], [[3], [5]], [11], True, True),
    "coins miss": ([0], [[3], [5]], [7], False, True),
    "negative coins reach": ([1, 0], [[0, -3], [0, -5]], [1, -13], True, True),
    "coins above the table": ([0], [[6], [10]], [2 * ABOVE_TABLE], True, False),
    "odd above the table": ([0], [[6], [10]], [2 * ABOVE_TABLE - 1], False, False),
    "independent, integral": ([0, 0], [[1, 2], [3, 1]], [5, 5], True, True),
    "independent, fractional": ([0, 0], [[1, 2], [3, 1]], [2, 2], False, True),
    "independent, negative": ([0, 0], [[1, 0], [1, 1]], [0, 1], False, True),
    "inconsistent": ([0, 0, 0], [[1, 1, 0], [0, 1, 1]], [1, 0, 0], False, True),
    "dependent, member": ([-1, 0], [[-1, 0], [1, 1], [2, 2]], [-1, 1], True, False),
    "dependent, non-member": ([-1, 0], [[-1, 0], [1, 1], [2, 2]], [0, 0], False, False),
}


class TestSubsumptionDifferential:
    """The pair-restricted ``simplify``/``leq`` and the exact membership
    rungs agree with the all-pairs loops and with the solver."""

    @settings(max_examples=150, deadline=None)
    @given(mixed_semilinear())
    # Two sets with one denotation (the earlier copy is kept) and a point
    # inside both.
    @example(sl(ls([0], [1], [-1]), ls([3], [1], [-1]), ls([5])))
    def test_simplify_matches_pairwise_loop(self, value):
        assert value.simplify() is _pairwise_simplify(value)

    @settings(max_examples=150, deadline=None)
    @given(mixed_semilinear(), st.lists(st.booleans(), min_size=5, max_size=5))
    @example(sl(ls([0], [2]), ls([2], [2])), [False, True, False, False, False])
    def test_leq_matches_pairwise_loop(self, value, sides):
        # Both operands come from one generator pool, so that a linear set on
        # one side is often subsumed by a different one on the other.
        sets = value.linear_sets
        left = [linear for linear, side in zip(sets, sides) if side]
        right = [linear for linear, side in zip(sets, sides) if not side]
        left = SemiLinearSet(left, value.dimension)
        right = SemiLinearSet(right, value.dimension)
        simplified = value.simplify()
        for small, large in ((left, right), (right, left), (value, simplified)):
            assert small.leq(large) == _pairwise_leq(small, large)
        assert value.leq(simplified)

    def test_simplify_matches_pairwise_loop_on_suite_iterates(self, monkeypatch):
        from repro.api import Solver
        from repro.engine.cache import clear_cache
        from repro.suites import get_benchmark

        seen = {}
        original = SemiLinearSet.simplify

        def recording(value):
            seen[value] = None
            return original(value)

        clear_cache()
        monkeypatch.setattr(SemiLinearSet, "simplify", recording)
        for suite, name in (
            ("LimitedIf", "max2"),
            ("LimitedIf", "example1"),
            ("LimitedIf", "sum_2_15"),
            ("LimitedConst", "mpg_guard4"),
        ):
            benchmark = get_benchmark(name, suite)
            response = Solver("naySL").check(benchmark, benchmark.witness_examples)
            assert response.verdict == "unrealizable"
        monkeypatch.undo()
        assert any(
            sum(1 for linear in value.linear_sets if linear.generators) > 1
            for value in seen
        )
        for value in seen:
            assert value.simplify() is _pairwise_simplify(value)

    @pytest.mark.parametrize("case", sorted(MEMBERSHIP_CASES))
    def test_membership_rungs_agree_with_solver(self, case):
        offset, generators, vector, member, decided = MEMBERSHIP_CASES[case]
        container = ls(offset, *generators)
        vector = IntVector(vector)
        difference = tuple(a - b for a, b in zip(vector, container.offset))
        verdict = _member_without_solver(difference, container.generators)
        assert verdict == (member if decided else None)
        assert container.contains(vector) == member
        assert _solver_contains(container, vector) == member

    @settings(max_examples=200, deadline=None)
    @given(membership_questions())
    def test_contains_agrees_with_solver(self, question):
        container, vector = question
        assert container.contains(vector) == _solver_contains(container, vector)

    def test_scaling_subsumption_needs_no_solver_query(self):
        from repro.engine.cache import clear_cache
        from repro.logic.solver import record_queries
        from repro.suites.scaling import example_set, scaling_benchmark
        from repro.unreal.lia import solve_lia_gfa

        clear_cache()
        queries = []
        with record_queries(queries):
            solve_lia_gfa(
                scaling_benchmark(14).problem.grammar, example_set(2), stratify=True
            )
        assert queries == []


class TestBoolVectorSet:
    def test_operations(self):
        tf = BoolVector([True, False])
        tt = BoolVector([True, True])
        left = BoolVectorSet([tf])
        right = BoolVectorSet([tt])
        assert left.combine(right) == BoolVectorSet([tf, tt])
        assert left.negate() == BoolVectorSet([~tf])
        assert left.conjoin(right) == BoolVectorSet([tf])
        assert left.disjoin(right) == BoolVectorSet([tt])

    def test_top_has_all_vectors(self):
        assert len(BoolVectorSet.top(3)) == 8

    def test_leq(self):
        small = BoolVectorSet([BoolVector([True])])
        assert small.leq(BoolVectorSet.top(1))
        assert not BoolVectorSet.top(1).leq(small)


class TestCliaInterpretation:
    def test_leaf_abstractions(self):
        examples = ExampleSet.of({"x": 1}, {"x": 2})
        interp = CliaInterpretation(examples)
        assert interp.var("x").contains(IntVector([1, 2]))
        assert interp.num(5).contains(IntVector([5, 5]))
        assert interp.neg_var("x").contains(IntVector([-1, -2]))

    def test_plus_is_extend(self):
        examples = ExampleSet.of({"x": 1}, {"x": 2})
        interp = CliaInterpretation(examples)
        result = interp.plus(interp.var("x"), interp.var("x"))
        assert result.contains(IntVector([2, 4]))

    def test_comparison_example_from_paper(self):
        """Example 6.1: LessThan# of two concrete semi-linear sets."""
        examples = ExampleSet.of({"x": 0}, {"x": 1})
        interp = CliaInterpretation(examples)
        sl1 = sl(ls([1, 2], [3, 4]))
        sl2 = sl(ls([5, 6], [7, 8]))
        result = interp.comparison("LessThan", sl1, sl2)
        assert BoolVector([True, True]) in result
        assert BoolVector([True, False]) in result
        assert BoolVector([False, False]) in result
        assert BoolVector([False, True]) not in result

    def test_not_example_from_paper(self):
        examples = ExampleSet.of({"x": 0}, {"x": 1})
        interp = CliaInterpretation(examples)
        bset = BoolVectorSet([BoolVector([True, False]), BoolVector([True, True])])
        assert interp.not_(bset) == BoolVectorSet(
            [BoolVector([False, True]), BoolVector([False, False])]
        )

    def test_if_then_else_example_from_paper(self):
        """Example 6.1's IfThenElse#: components are mixed per guard vector."""
        examples = ExampleSet.of({"x": 0}, {"x": 1})
        interp = CliaInterpretation(examples)
        guards = BoolVectorSet([BoolVector([True, False]), BoolVector([True, True])])
        sl1 = sl(ls([1, 2], [3, 4]))
        sl2 = sl(ls([5, 6], [7, 8]))
        result = interp.if_then_else(guards, sl1, sl2)
        assert result.contains(IntVector([1, 6]))   # guard (t, f)
        assert result.contains(IntVector([1, 2]))   # guard (t, t)
        assert result.contains(IntVector([4, 14]))  # (1+3, 6+8)

    def test_exactness_on_singletons(self):
        """Lemma 6.2 in miniature: on singletons the transformers are exact."""
        examples = ExampleSet.of({"x": 2}, {"x": 5})
        interp = CliaInterpretation(examples)
        x = interp.var("x")
        two = interp.num(2)
        compared = interp.comparison("LessThan", x, two)
        assert compared == BoolVectorSet([BoolVector([False, False])])
        chosen = interp.if_then_else(compared, x, two)
        assert chosen.contains(IntVector([2, 2]))


class TestNumericDomains:
    def test_interval_join_and_widen(self):
        a = Interval(0, 5)
        b = Interval(3, 10)
        assert a.join(b) == Interval(0, 10)
        assert a.widen(b) == Interval(0, None)
        assert a.widen(Interval(-1, 4)) == Interval(None, 5)

    def test_interval_add_with_infinities(self):
        assert Interval(0, None).add(Interval(1, 1)) == Interval(1, None)
        assert Interval.empty().add(Interval(1, 1)).is_empty()

    def test_congruence_join(self):
        four = Congruence.constant(4)
        seven = Congruence.constant(7)
        joined = four.join(seven)
        assert joined.contains(10) and joined.contains(1)
        assert not joined.contains(2)

    def test_congruence_add(self):
        evens = Congruence(0, 2)
        odds = Congruence(1, 2)
        assert evens.add(odds).contains(3)
        assert not evens.add(evens).contains(3)

    def test_congruence_leq(self):
        assert Congruence(1, 6).leq(Congruence(1, 3))
        assert not Congruence(1, 3).leq(Congruence(1, 6))
        assert Congruence.constant(4).leq(Congruence(0, 2))

    def test_product_value_roundtrip(self):
        value = ProductValue.constant(IntVector([3, 6]))
        assert value.contains(IntVector([3, 6]))
        assert not value.contains(IntVector([3, 7]))
        joined = value.join(ProductValue.constant(IntVector([6, 12])))
        assert joined.contains(IntVector([6, 12]))
        assert not joined.contains(IntVector([4, 8]))  # congruence mod 3/6 rules it out

    def test_product_symbolic(self):
        from repro.logic.solver import check_sat
        from repro.logic.formulas import atom_eq, conjunction
        from repro.logic.terms import LinearExpression

        value = ProductValue.constant(IntVector([3])).join(
            ProductValue.constant(IntVector([9]))
        )
        # value abstracts {3, 9}: interval [3, 9] and congruence 3 mod 6.
        output = LinearExpression.variable("o")
        inside = conjunction([value.symbolic([output]), atom_eq(output, 9)])
        outside = conjunction([value.symbolic([output]), atom_eq(output, 6)])
        assert check_sat(inside).is_sat
        assert check_sat(outside).is_unsat
