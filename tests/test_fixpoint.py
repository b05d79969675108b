"""Worklist vs dense strategy equivalence and solver counters.

The worklist strategy must compute exactly the fixpoints the dense strategy
computes — on every suite grammar, on randomized equation systems, and on
randomized LIA grammars — while performing (often far) fewer equation
evaluations.  These tests are the safety net behind the worklist strategy,
whose speedup over dense is on record in CHANGES.md (PR 3).
"""

from __future__ import annotations

import random

import pytest

from repro.domains.clia import CliaInterpretation
from repro.domains.product import NumericProductDomain
from repro.gfa.builder import build_lia_equations
from repro.gfa.equations import EquationSystem, Monomial, Polynomial
from repro.gfa.fixpoint import DENSE, WORKLIST, FixpointSolution
from repro.gfa.kleene import solve_kleene
from repro.gfa.newton import solve_newton, solve_stratified
from repro.gfa.semiring import BooleanSemiring, SemiLinearSemiring
from repro.gfa.stratify import equation_strata
from repro.grammar import alphabet as alph
from repro.grammar.analysis import trim
from repro.grammar.rtg import Nonterminal, Production, RegularTreeGrammar
from repro.semantics.examples import ExampleSet
from repro.suites import all_benchmarks
from repro.unreal.approximate import solve_abstract_gfa
from repro.unreal.clia import solve_clia_gfa
from repro.unreal.lia import solve_lia_gfa
from repro.utils.errors import SolverLimitError
from repro.utils.vectors import IntVector

SUITE_BENCHMARKS = all_benchmarks(include_scaling=True)

#: The exact CLIA solve of the larger array_search instances takes 3-30s per
#: strategy (their comparison guards blow up the RemIf system), which would
#: dominate the whole tier-1 suite; the first members of the family exercise
#: the identical code path, so the tail is skipped for the *exact* agreement
#: test only (the abstract agreement test still covers every grammar).
EXACT_AGREEMENT_SKIP = {f"array_search_{n}" for n in range(5, 16)}


def small_examples(benchmark) -> ExampleSet:
    """The benchmark's witness examples, capped at 2 to keep runtime sane."""
    examples = benchmark.witness_examples or ExampleSet()
    if len(examples) > 2:
        examples = ExampleSet(list(examples)[:2])
    return examples


# ---------------------------------------------------------------------------
# Every suite grammar: both strategies must agree
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry", SUITE_BENCHMARKS, ids=lambda bench: f"{bench.suite}:{bench.name}"
)
def test_exact_strategies_agree_on_suite_grammar(entry):
    if entry.name in EXACT_AGREEMENT_SKIP:
        pytest.skip("heavyweight array_search tail; family covered by first members")
    examples = small_examples(entry)
    if len(examples) == 0:
        pytest.skip("benchmark records no witness examples")
    grammar = entry.problem.grammar
    semiring = SemiLinearSemiring(len(examples))
    if grammar.is_lia():
        worklist = solve_lia_gfa(grammar, examples, strategy=WORKLIST)
        dense = solve_lia_gfa(grammar, examples, strategy=DENSE)
        assert semiring.equal(worklist.start_value, dense.start_value)
        for key, value in worklist.values.items():
            assert semiring.equal(value, dense.values[key]), key
    else:
        worklist = solve_clia_gfa(grammar, examples, strategy=WORKLIST)
        dense = solve_clia_gfa(grammar, examples, strategy=DENSE)
        assert semiring.equal(worklist.start_value, dense.start_value)
        assert worklist.boolean_values == dense.boolean_values


@pytest.mark.parametrize(
    "entry", SUITE_BENCHMARKS, ids=lambda bench: f"{bench.suite}:{bench.name}"
)
def test_abstract_strategies_agree_on_suite_grammar(entry):
    examples = small_examples(entry)
    if len(examples) == 0:
        pytest.skip("benchmark records no witness examples")
    grammar = entry.problem.grammar
    worklist = solve_abstract_gfa(grammar, examples, strategy=WORKLIST)
    dense = solve_abstract_gfa(grammar, examples, strategy=DENSE)
    equal = NumericProductDomain().equal
    for key in worklist.values:
        assert equal(worklist.values[key], dense.values[key]), key


# ---------------------------------------------------------------------------
# Randomized equation systems (Boolean semiring oracle)
# ---------------------------------------------------------------------------


def random_boolean_system(seed: int, size: int = 5) -> EquationSystem:
    rng = random.Random(seed)
    names = [f"V{i}" for i in range(size)]
    equations = {}
    for name in names:
        monomials = []
        for _ in range(rng.randint(0, 3)):
            variables = tuple(
                rng.choice(names) for _ in range(rng.randint(0, 2))
            )
            monomials.append(Monomial(rng.random() < 0.7, variables))
        equations[name] = Polynomial(tuple(monomials))
    return EquationSystem(equations)


@pytest.mark.parametrize("seed", range(40))
def test_kleene_strategies_agree_on_random_systems(seed):
    system = random_boolean_system(seed)
    semiring = BooleanSemiring()
    worklist = solve_kleene(system, semiring, strategy=WORKLIST)
    dense = solve_kleene(system, semiring, strategy=DENSE)
    assert dict(worklist) == dict(dense)


@pytest.mark.parametrize("seed", range(40))
def test_newton_strategies_agree_on_random_systems(seed):
    system = random_boolean_system(seed)
    semiring = BooleanSemiring()
    sparse = solve_newton(system, semiring, strategy=WORKLIST)
    dense = solve_newton(system, semiring, strategy=DENSE)
    assert dict(sparse) == dict(dense)
    # Both must agree with the Kleene oracle (finite domain => exact).
    kleene = solve_kleene(system, semiring)
    assert dict(sparse) == dict(kleene)


def random_lia_grammar(seed: int, num_nonterminals: int = 4) -> RegularTreeGrammar:
    rng = random.Random(seed)
    nonterminals = [Nonterminal(f"N{i}") for i in range(num_nonterminals)]
    productions = []
    for nonterminal in nonterminals:
        leaf = rng.choice([alph.num(rng.randint(-2, 2)), alph.var("x")])
        productions.append(Production(nonterminal, leaf, ()))
        for _ in range(rng.randint(0, 2)):
            left = rng.choice(nonterminals)
            right = rng.choice(nonterminals)
            productions.append(Production(nonterminal, alph.plus(2), (left, right)))
    grammar = RegularTreeGrammar(
        nonterminals, nonterminals[0], productions, name=f"rand{seed}"
    )
    return trim(grammar)


@pytest.mark.parametrize("seed", range(10))
def test_newton_strategies_agree_on_random_lia_grammars(seed):
    """Both strategies reach the same least fixpoint on random LIA grammars.

    The comparison is by exact membership of sampled vectors rather than the
    syntactic ``semiring.equal``: the two strategies may reach semantically
    identical but differently *represented* semi-linear sets (representation
    depends on iteration order), and the syntactic subsumption check is
    deliberately incomplete (§7).  Stratification is held fixed — it is an
    orthogonal knob, and the non-stratified solve is a documented
    over-approximation on some systems (a pre-existing seed behaviour).
    """
    grammar = random_lia_grammar(seed)
    examples = ExampleSet.of({"x": 1}, {"x": 3})
    system = build_lia_equations(grammar, CliaInterpretation(examples))
    semiring = SemiLinearSemiring(2)
    strata = equation_strata(system)
    worklist = solve_stratified(system, semiring, strata, strategy=WORKLIST)
    dense = solve_stratified(system, semiring, strata, strategy=DENSE)
    for key in worklist:
        left, right = worklist[key], dense[key]
        assert left.is_empty() == right.is_empty(), key
        for vector in left.sample(max_coefficient=1, limit=12):
            assert right.contains(vector), (key, vector)
        for vector in right.sample(max_coefficient=1, limit=12):
            assert left.contains(vector), (key, vector)


# ---------------------------------------------------------------------------
# Counters and failure modes
# ---------------------------------------------------------------------------


def chain_system(length: int) -> EquationSystem:
    equations = {
        f"X{i}": Polynomial((Monomial(True, (f"X{i + 1}",)),)) for i in range(length)
    }
    equations[f"X{length}"] = Polynomial((Monomial(True, ()),))
    return EquationSystem(equations)


def test_worklist_beats_dense_on_chain_evaluations():
    system = chain_system(50)
    semiring = BooleanSemiring()
    worklist = solve_kleene(system, semiring, strategy=WORKLIST)
    dense = solve_kleene(system, semiring, strategy=DENSE)
    assert dict(worklist) == dict(dense)
    assert worklist.stats.evaluations < dense.stats.evaluations / 10


def test_solution_carries_counters():
    system = chain_system(5)
    solution = solve_kleene(system, BooleanSemiring())
    assert isinstance(solution, FixpointSolution)
    assert solution.stats.strategy == WORKLIST
    assert solution.stats.iterations >= 1
    assert solution.stats.evaluations >= len(system.variables)


def test_lia_solution_reports_evaluations(running_example_grammar):
    examples = ExampleSet.of({"x": 1})
    solution = solve_lia_gfa(running_example_grammar, examples)
    assert solution.evaluations > 0
    assert solution.iterations > 0


@pytest.mark.parametrize("strategy", [WORKLIST, DENSE])
def test_kleene_raises_on_divergent_system(strategy):
    from repro.domains.semilinear import SemiLinearSet

    semiring = SemiLinearSemiring(1)
    system = EquationSystem(
        {
            "X": Polynomial(
                (
                    Monomial(SemiLinearSet.singleton(IntVector([1])), ("X",)),
                    Monomial(SemiLinearSet.singleton(IntVector([0])), ()),
                )
            )
        }
    )
    with pytest.raises(SolverLimitError):
        solve_kleene(system, semiring, max_iterations=10, strategy=strategy)


def test_unknown_strategy_rejected():
    system = chain_system(2)
    with pytest.raises(ValueError):
        solve_kleene(system, BooleanSemiring(), strategy="eager")


def test_dependents_map_inverts_polynomial_variables():
    system = chain_system(3)
    dependents = system.dependents()
    assert dependents["X1"] == ("X0",)
    assert dependents["X3"] == ("X2",)
    assert "X0" not in dependents  # nothing reads the head of the chain
