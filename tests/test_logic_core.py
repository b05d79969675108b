"""Tests for the incremental DPLL(T) core.

Four angles:

* **differential** — the rewritten solver must agree with brute-force
  enumeration on box-bounded random formulas (bounded boxes make brute
  force a complete oracle) and with the preserved pre-rewrite stack
  (:mod:`repro.logic.reference`) on unbounded ones and on every query of
  real naySL checks;
* **unsat cores** — cores are infeasible subsets, minimal under
  single-atom deletion;
* **contexts** — push/pop restores assertion state exactly, assumptions
  do not leak, lemmas survive pops;
* **caches** — the cross-query cache pickles structurally and
  ``engine.cache.clear_cache`` resets the logic stores.
"""

from __future__ import annotations

import itertools
import pickle
import random

import pytest

from repro.engine.cache import clear_cache
from repro.engine.registry import create_engine
from repro.logic.formulas import (
    Atom,
    BoolLit,
    Comparison,
    atom_eq,
    atom_ge,
    atom_le,
    atom_lt,
    atom_ne,
    conjunction,
    disjunction,
    make_atom,
)
from repro.logic.ilp import solve_conjunction
from repro.logic.reference import (
    reference_check_sat,
    reference_feasible_point,
    reference_integer_feasible,
)
from repro.logic.simplex import SimplexTableau, feasible_point, satisfies
from repro.logic.solver import (
    STAT_KEYS,
    LogicQueryCache,
    SolverContext,
    check_sat,
    clear_logic_caches,
    logic_cache_stats,
    record_queries,
)
from repro.logic.terms import LinearExpression
from repro.suites import get_benchmark
from repro.utils.errors import SolverError, SolverLimitError
from repro.utils.stats import recording

x = LinearExpression.variable("x")
y = LinearExpression.variable("y")
z = LinearExpression.variable("z")


# ---------------------------------------------------------------------------
# Random formula generation
# ---------------------------------------------------------------------------

BOX = 4  # brute-force box: every variable ranges over [-BOX, BOX]
NAMES = ("x", "y")


def _random_bounded_formula(rng: random.Random):
    """A random QF-LIA formula conjoined with the brute-force box bounds.

    Bounding every variable makes brute-force enumeration a *complete*
    decision procedure, so the differential test checks both directions.
    """
    makers = (atom_le, atom_lt, atom_eq, atom_ne)

    def random_atom():
        expression = LinearExpression(
            {name: rng.randint(-3, 3) for name in NAMES}, rng.randint(-6, 6)
        )
        return rng.choice(makers)(expression, 0)

    clauses = [
        disjunction([random_atom() for _ in range(rng.randint(1, 3))])
        for _ in range(rng.randint(1, 4))
    ]
    box = [
        atom
        for name in NAMES
        for atom in (
            atom_ge(LinearExpression.variable(name), -BOX),
            atom_le(LinearExpression.variable(name), BOX),
        )
    ]
    return conjunction(clauses + box)


def _brute_force_sat(formula) -> bool:
    values = range(-BOX, BOX + 1)
    return any(
        formula.evaluate(dict(zip(NAMES, point)))
        for point in itertools.product(values, repeat=len(NAMES))
    )


class TestDifferential:
    def test_agrees_with_brute_force_on_500_random_formulas(self):
        """Two-sided agreement with exhaustive enumeration (>= 500 formulas)."""
        rng = random.Random(2020)
        checked = 0
        for _ in range(520):
            formula = _random_bounded_formula(rng)
            if isinstance(formula, BoolLit):
                continue
            result = check_sat(formula)
            assert result.is_sat == _brute_force_sat(formula), str(formula)
            if result.is_sat:
                assert formula.evaluate(result.model), str(formula)
            checked += 1
        assert checked >= 500

    def test_agrees_with_reference_solver_on_bounded_formulas(self):
        rng = random.Random(77)
        for _ in range(150):
            formula = _random_bounded_formula(rng)
            if isinstance(formula, BoolLit):
                continue
            new_verdict = check_sat(formula).is_sat
            old_verdict, old_model = reference_check_sat(formula)
            assert new_verdict == old_verdict, str(formula)
            if old_verdict:
                assert formula.evaluate(old_model)

    def test_agrees_with_reference_on_unbounded_conjunctions(self):
        """Pure conjunctions without a box (reference kept on a small node
        budget; budget-blowing instances are skipped, not failed)."""
        rng = random.Random(11)
        checked = 0
        while checked < 200:
            atoms = []
            for _ in range(rng.randint(1, 4)):
                expression = LinearExpression(
                    {name: rng.randint(-3, 3) for name in NAMES},
                    rng.randint(-6, 6),
                )
                comparison = rng.choice(
                    [Comparison.LE, Comparison.LT, Comparison.EQ]
                )
                atom = make_atom(expression, comparison)
                if not isinstance(atom, BoolLit):
                    atoms.append(atom)
            if not atoms:
                continue
            outcome = solve_conjunction(atoms)
            try:
                old = reference_integer_feasible(atoms, node_limit=600)
            except SolverLimitError:
                continue
            assert (outcome.model is None) == (old is None), [
                str(atom) for atom in atoms
            ]
            if outcome.model is not None:
                for atom in atoms:
                    assert atom.evaluate(outcome.model)
            checked += 1

    @pytest.mark.parametrize(
        "name,suite", [("ite1", "LimitedIf"), ("array_search_8", None)]
    )
    def test_agrees_with_reference_on_captured_check_streams(self, name, suite):
        """Every query one naySL check asks: LimitedIf's 2^|E| comparison
        queries and a Table 2 CLIA verdict extraction, replayed from cold
        caches."""
        benchmark = get_benchmark(name, suite)
        clear_cache()
        stream = []
        with record_queries(stream):
            create_engine("naySL").check(benchmark.problem, benchmark.witness_examples)
        assert stream
        clear_cache()
        for formula in stream:
            result = check_sat(formula)
            assert result.is_sat == reference_check_sat(formula)[0], str(formula)
            if result.is_sat:
                assert formula.evaluate(result.model), str(formula)


class TestSimplex:
    def test_differential_against_reference_lp(self):
        rng = random.Random(5)
        for _ in range(300):
            nvars = rng.randint(1, 3)
            names = [f"v{i}" for i in range(nvars)]
            constraints = [
                LinearExpression(
                    {name: rng.randint(-4, 4) for name in names},
                    rng.randint(-8, 8),
                )
                for _ in range(rng.randint(1, 5))
            ]
            new_point = feasible_point(constraints)
            old_point = reference_feasible_point(constraints)
            assert (new_point is None) == (old_point is None)
            if new_point is not None:
                assert satisfies(constraints, new_point)

    def test_incremental_addition_matches_batch(self):
        rng = random.Random(6)
        for _ in range(150):
            names = ["a", "b"]
            base = [
                LinearExpression(
                    {name: rng.randint(-3, 3) for name in names},
                    rng.randint(-6, 6),
                )
                for _ in range(rng.randint(1, 3))
            ]
            extra = [
                LinearExpression(
                    {name: rng.randint(-3, 3) for name in names},
                    rng.randint(-6, 6),
                )
                for _ in range(rng.randint(1, 2))
            ]
            tableau = SimplexTableau(names)
            if not all(tableau.add_constraint(expr) for expr in base):
                assert feasible_point(base) is None
                continue
            child = tableau.clone()
            child_feasible = all(child.add_constraint(expr) for expr in extra)
            batch = feasible_point(base + extra)
            assert child_feasible == (batch is not None)
            if child_feasible:
                assert satisfies(base + extra, child.solution())
            # The parent tableau is untouched by the child's pivots.
            assert satisfies(base, tableau.solution())

    def test_pivot_counter(self):
        stats = {}
        point = feasible_point([x - 10, -x + 2, x + y - 3, -y - 5], stats)
        assert point is not None
        assert stats["pivots"] >= 1


class TestUnsatCores:
    def test_core_is_infeasible_and_minimal(self):
        atoms = [
            atom_ge(x, 3),
            atom_le(x, 1),
            atom_ge(y, 0),
            atom_eq(z, 2),
        ]
        outcome = solve_conjunction(atoms)
        assert outcome.model is None
        core = outcome.core
        assert core is not None
        core_atoms = set(core)
        # The conflict is exactly the x-bounds pair.
        assert core_atoms == {atoms[0], atoms[1]}
        # Minimality: dropping any single core atom makes the rest feasible.
        for index in range(len(core)):
            probe = list(core[:index]) + list(core[index + 1 :])
            assert solve_conjunction(probe, minimize_core=False).model is not None

    def test_random_cores_are_sound_and_minimal(self):
        rng = random.Random(13)
        found = 0
        while found < 40:
            atoms = []
            for _ in range(rng.randint(2, 5)):
                expression = LinearExpression(
                    {name: rng.randint(-3, 3) for name in NAMES},
                    rng.randint(-5, 5),
                )
                comparison = rng.choice([Comparison.LE, Comparison.EQ])
                atom = make_atom(expression, comparison)
                if not isinstance(atom, BoolLit):
                    atoms.append(atom)
            if not atoms:
                continue
            outcome = solve_conjunction(atoms)
            if outcome.model is not None:
                continue
            found += 1
            core = list(outcome.core)
            assert solve_conjunction(core, minimize_core=False).model is None
            if len(core) > 1:
                for index in range(len(core)):
                    probe = core[:index] + core[index + 1 :]
                    assert (
                        solve_conjunction(probe, minimize_core=False).model
                        is not None
                    )

    def test_statistics_surface_nodes_and_pivots(self):
        # A conjunction that genuinely needs branch-and-bound: 3x + 3y = 7
        # is rationally feasible, integrally infeasible only after branching
        # on the relaxation of the strip 2 <= 3x - y <= 2 ... use a mix that
        # survives propagation.
        formula = conjunction(
            [
                atom_ge(x.scale(2) + y.scale(3), 5),
                atom_le(x.scale(2) + y.scale(3), 5),
                atom_ge(x.scale(5) - y.scale(7), 2),
                atom_le(x, 40),
                atom_ge(x, -40),
                atom_le(y, 40),
                atom_ge(y, -40),
            ]
        )
        result = check_sat(formula)
        stats = result.statistics
        for key in ("theory_queries", "bb_nodes", "simplex_pivots", "branches"):
            assert key in stats
        assert stats["theory_queries"] >= 1


class TestSolverContext:
    def test_push_pop_restores_assertions(self):
        context = SolverContext()
        context.assert_formula(atom_ge(x, 0))
        assert context.check().is_sat
        context.push()
        context.assert_formula(atom_le(x, -1))
        assert context.check().is_unsat
        context.pop()
        assert context.num_assertions == 1
        result = context.check()
        assert result.is_sat
        assert result.model["x"] >= 0

    def test_nested_scopes(self):
        context = SolverContext()
        context.assert_formula(atom_ge(x, 0))
        with context.scope():
            context.assert_formula(atom_le(x, 10))
            with context.scope():
                context.assert_formula(atom_eq(x, 11))
                assert context.check().is_unsat
            assert context.check().is_sat
        assert context.num_assertions == 1

    def test_pop_without_push_raises(self):
        with pytest.raises(SolverError):
            SolverContext().pop()

    def test_assumptions_do_not_persist(self):
        context = SolverContext()
        context.assert_formula(atom_ge(x, 0))
        assert context.check([atom_le(x, -5)]).is_unsat
        assert context.check().is_sat

    def test_model_covers_assumption_variables(self):
        context = SolverContext()
        context.assert_formula(atom_ge(x, 2))
        result = context.check([atom_eq(y, x + 1)])
        assert result.is_sat
        assert result.model["y"] == result.model["x"] + 1

    def test_lemmas_survive_pop(self):
        clear_logic_caches()
        context = SolverContext()
        context.assert_formula(atom_ge(x, 5))
        with context.scope():
            context.assert_formula(atom_le(x, 1))
            assert context.check().is_unsat
        learned_after = logic_cache_stats()["lemmas"]["learned"]
        assert learned_after >= 1
        # The lemma store is process-wide: the pop retracted the assertion
        # but not the theory fact.
        assert logic_cache_stats()["lemmas"]["learned"] == learned_after

    def test_disequalities_and_disjunctions_through_context(self):
        context = SolverContext()
        context.assert_formula(atom_ge(x, 0))
        context.assert_formula(atom_le(x, 1))
        context.assert_formula(atom_ne(x, 0))
        result = context.check()
        assert result.is_sat and result.model["x"] == 1
        assert context.check([atom_ne(x, 1)]).is_unsat


class TestCaches:
    def test_theory_cache_hits_on_repeat(self):
        clear_logic_caches()
        formula = conjunction([atom_ge(x, 3), atom_le(x, 9), atom_ne(x, 5)])
        first = check_sat(formula)
        with recording(*STAT_KEYS) as counted:
            rebuilt = conjunction([atom_ge(x, 3), atom_le(x, 9), atom_ne(x, 5)])
            second = check_sat(rebuilt)
        assert first.status == second.status
        assert counted["formula_cache_hits"] > 0 or counted["theory_cache_hits"] > 0

    def test_lemma_store_prunes_sibling_branches(self):
        clear_logic_caches()
        conflict = conjunction([atom_ge(x, 5), atom_le(x, 1)])
        # Many disjuncts share the same conflicting pair: after the first
        # theory refutation the remaining branches must die by lemma.
        formula = conjunction(
            [
                conflict,
                disjunction([atom_eq(y, value) for value in range(6)]),
            ]
        )
        result = check_sat(formula)
        assert result.is_unsat
        stats = result.statistics
        assert stats["lemma_hits"] >= 1
        assert stats["theory_queries"] <= 3

    def test_query_cache_pickles_structurally(self):
        clear_logic_caches()
        formula = conjunction([atom_ge(x, 2), atom_le(x, 2)])
        check_sat(formula)
        from repro.logic import solver as solver_module

        restored = pickle.loads(pickle.dumps(solver_module._QUERY_CACHE))
        assert isinstance(restored, LogicQueryCache)
        assert restored.stats()["entries"] == solver_module._QUERY_CACHE.stats()["entries"]

    def test_clear_cache_resets_logic_stores(self):
        check_sat(conjunction([atom_ge(x, 1), atom_le(x, 0)]))
        stats = logic_cache_stats()
        assert (
            stats["query_cache"]["entries"] > 0
            or stats["formula_cache"]["entries"] > 0
            or stats["lemmas"]["entries"] > 0
        )
        clear_cache()  # the engine-level clear must cover the logic stores
        stats = logic_cache_stats()
        assert stats["query_cache"]["entries"] == 0
        assert stats["formula_cache"]["entries"] == 0
        assert stats["lemmas"]["entries"] == 0

    def test_membership_contexts_cleared_with_cache(self):
        from repro.domains.semilinear import LinearSet, semilinear_cache_stats
        from repro.utils.vectors import IntVector

        clear_cache()
        # Dependent generators over two live coordinates: neither query is
        # settled by the exact rungs of ``contains``, so both reach the solver.
        container = LinearSet(
            IntVector([-1, 0]),
            (IntVector([-1, 0]), IntVector([1, 1]), IntVector([2, 2])),
        )
        assert container.contains(IntVector([-1, 1]))
        assert not container.contains(IntVector([0, 0]))
        assert semilinear_cache_stats()["member_contexts"]["entries"] == 1
        clear_cache()
        assert semilinear_cache_stats()["member_contexts"]["entries"] == 0


class TestSolverStatsWire:
    def test_solver_stats_flow_into_solve_response(self):
        from repro.api import Solver

        clear_cache()
        response = Solver().solve("plane1")
        assert response.verdict == "unrealizable"
        assert response.solver_stats.get("theory_queries", 0) >= 1
        payload = response.to_json()
        assert payload["schema_version"] == 3
        assert "solver_stats" in payload

    def test_schema_version_1_payloads_still_parse(self):
        from repro.api.wire import SolveResponse, WireFormatError

        response = SolveResponse.from_json(
            {"schema_version": 1, "verdict": "unknown", "engine": "naySL"}
        )
        assert response.solver_stats == {}
        with pytest.raises(WireFormatError):
            SolveResponse.from_json({"schema_version": 99, "verdict": "unknown"})
