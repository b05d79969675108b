"""Hash-consing (interning), canonicalization, and memo-table tests."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains.semilinear import (
    LinearSet,
    SemiLinearSet,
    clear_semilinear_caches,
    semilinear_cache_stats,
)
from repro.grammar import alphabet as alph
from repro.grammar.terms import Term
from repro.logic.solver import logic_cache_stats
from repro.utils.errors import GrammarError
from repro.utils.intern import intern_stats, interner
from repro.utils.lru import BoundedLru
from repro.utils.vectors import BoolVector, IntVector


class TestVectorInterning:
    def test_equal_int_vectors_are_identical(self):
        assert IntVector([1, 2, 3]) is IntVector([1, 2, 3])
        assert IntVector([1, 2, 3]) is not IntVector([1, 2, 4])

    def test_equal_bool_vectors_are_identical(self):
        assert BoolVector([True, False]) is BoolVector([True, False])

    def test_bool_and_int_interners_are_separate(self):
        # (1, 0) and (True, False) coerce to different canonical tuples per
        # class; neither interner may hand out the other's instances.
        assert IntVector([1, 0]) is not BoolVector([True, False])

    def test_arithmetic_produces_interned_results(self):
        left = IntVector([1, 2]) + IntVector([2, 1])
        assert left is IntVector([3, 3])

    def test_pickle_reinterns(self):
        vector = IntVector([5, 7, 11])
        assert pickle.loads(pickle.dumps(vector)) is vector

    @given(st.lists(st.integers(-50, 50), min_size=0, max_size=5))
    def test_interning_preserves_equality_semantics(self, values):
        assert IntVector(values) == IntVector(tuple(values))
        assert hash(IntVector(values)) == hash(IntVector(tuple(values)))


class TestTermInterning:
    def test_equal_terms_are_identical(self):
        one = Term.apply(alph.plus(2), Term.leaf(alph.var("x")), Term.leaf(alph.num(1)))
        two = Term.apply(alph.plus(2), Term.leaf(alph.var("x")), Term.leaf(alph.num(1)))
        assert one is two

    def test_terms_are_immutable(self):
        term = Term.leaf(alph.num(3))
        with pytest.raises(AttributeError):
            term.symbol = alph.num(4)

    def test_arity_still_checked(self):
        with pytest.raises(GrammarError):
            Term(alph.plus(2), (Term.leaf(alph.num(1)),))

    def test_pickle_reinterns(self):
        term = Term.apply(alph.plus(2), Term.leaf(alph.var("x")), Term.leaf(alph.num(2)))
        assert pickle.loads(pickle.dumps(term)) is term


# Strategy mirrors test_domains: 2-dimensional sets with small entries.
offsets = st.lists(st.integers(-5, 5), min_size=2, max_size=2).map(IntVector)
generators = st.lists(st.integers(0, 5), min_size=2, max_size=2).map(IntVector)


class TestLinearSetCanonicalization:
    @settings(max_examples=60, deadline=None)
    @given(offsets, st.lists(generators, min_size=0, max_size=4))
    def test_canonicalization_is_idempotent(self, offset, gens):
        linear = LinearSet(offset, tuple(gens))
        again = LinearSet(linear.offset, linear.generators)
        assert again is linear
        assert again.generators == linear.generators

    @settings(max_examples=60, deadline=None)
    @given(offsets, st.lists(generators, min_size=0, max_size=4))
    def test_generator_order_and_duplicates_are_canonicalized(self, offset, gens):
        shuffled = list(gens)
        random.Random(0).shuffle(shuffled)
        assert LinearSet(offset, tuple(shuffled + shuffled)) is LinearSet(
            offset, tuple(gens)
        )

    @settings(max_examples=60, deadline=None)
    @given(offsets, st.lists(generators, min_size=0, max_size=4))
    def test_generators_are_sorted_deduped_and_nonzero(self, offset, gens):
        linear = LinearSet(offset, tuple(gens))
        values = [g.values for g in linear.generators]
        assert values == sorted(set(values))
        assert all(not g.is_zero() for g in linear.generators)


class TestSemiLinearInterning:
    def test_construction_order_is_canonicalized(self):
        a = LinearSet(IntVector([1, 0]), (IntVector([2, 2]),))
        b = LinearSet(IntVector([0, 1]), ())
        assert SemiLinearSet([a, b]) is SemiLinearSet([b, a, a])

    def test_empty_sets_of_different_dimension_are_distinct_but_equal(self):
        assert SemiLinearSet.empty(1) is not SemiLinearSet.empty(2)
        assert SemiLinearSet.empty(1) == SemiLinearSet.empty(2)
        assert SemiLinearSet.empty(2).star().dimension == 2

    def test_combine_with_zero_preserves_dimension(self):
        value = SemiLinearSet.singleton(IntVector([1, 2]))
        assert value.combine(SemiLinearSet.empty(2)) is value
        assert SemiLinearSet.empty(2).combine(value) is value

    def test_pickle_reinterns(self):
        value = SemiLinearSet.singleton(IntVector([3, 4]))
        assert pickle.loads(pickle.dumps(value)) is value


class TestMemoTables:
    def test_simplify_is_memoized(self):
        clear_semilinear_caches()
        value = SemiLinearSet(
            [
                LinearSet(IntVector([0, 0]), (IntVector([1, 1]),)),
                LinearSet(IntVector([2, 2]), (IntVector([1, 1]),)),
            ],
            2,
        )
        first = value.simplify()
        hits_before = semilinear_cache_stats()["simplify"]["hits"]
        second = value.simplify()
        assert second is first
        assert semilinear_cache_stats()["simplify"]["hits"] > hits_before
        # The simplified result is its own fixpoint (recorded as such).
        assert first.simplify() is first

    def test_simplify_results_unchanged_by_memoization(self):
        clear_semilinear_caches()
        value = SemiLinearSet(
            [
                LinearSet(IntVector([0, 0]), (IntVector([1, 1]),)),
                LinearSet(IntVector([2, 2]), (IntVector([1, 1]),)),
                LinearSet(IntVector([5, 7]), ()),
            ],
            2,
        )
        assert len(value.simplify().linear_sets) == 2

    def test_stats_shapes(self):
        stats = intern_stats()
        for name in ("IntVector", "BoolVector", "Term", "LinearSet", "SemiLinearSet"):
            assert name in stats
            assert set(stats[name]) == {"live", "hits", "misses"}

    def test_memo_stats_shapes(self):
        semilinear = semilinear_cache_stats()
        logic = logic_cache_stats()
        assert set(semilinear) == {"simplify", "subsumes", "member_contexts"}
        assert set(logic) == {"query_cache", "formula_cache", "lemmas"}
        tables = [*semilinear.values(), logic["query_cache"], logic["formula_cache"]]
        for stats in tables:
            assert set(stats) == {"entries", "hits", "misses"}
        assert set(logic["lemmas"]) == {"entries", "learned", "hits"}

    def test_bounded_lru_evicts_the_least_recently_used_entry(self):
        table = BoundedLru(2)
        table.put("a", 1)
        table.put("b", 2)
        assert table.get("a") == 1  # "b" is now the least recently used
        table.put("c", 3)
        assert table.get("b") is None
        assert (table.get("a"), table.get("c")) == (1, 3)
        assert table.stats() == {"entries": 2, "hits": 3, "misses": 1}
        table.clear()
        assert table.stats() == {"entries": 0, "hits": 0, "misses": 0}

    def test_interner_registry_is_shared(self):
        assert interner("IntVector") is interner("IntVector")
