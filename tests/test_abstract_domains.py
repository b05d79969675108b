"""Tests for the pluggable abstract-domain framework.

Covers the domain registry, the interval domain's solver-free one-variable
decision procedure, transfer-function soundness of every domain against
bounded term enumeration, powerset exactness, the reduced-product
combinator, and — the CI soundness gate — a differential sweep of the
``nayInt``/``nayFin`` engines against exact ``naySL`` over all 141 suite
benchmarks: the approximate engines must never report ``UNREALIZABLE``
where naySL reports ``REALIZABLE`` (and, when nayFin certifies exactness,
its definitive verdicts must match naySL's exactly).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import (
    AbstractDomain,
    Box,
    ExamplePowersetDomain,
    IntervalDomain,
    NumericProductDomain,
    ReducedProductDomain,
    VectorSet,
    create_domain,
    domain_names,
    register_domain,
    resolve_domain,
)
from repro.domains.boolvectors import BoolVectorSet
from repro.domains.interval import satisfiable_on_interval
from repro.domains.numeric import Congruence, Interval, ProductValue
from repro.domains.registry import get_domain_class
from repro.engine.registry import create_engine
from repro.logic.formulas import atom_eq, atom_ge, atom_le, atom_lt, conjunction, disjunction
from repro.logic.terms import LinearExpression
from repro.semantics.evaluator import evaluate
from repro.semantics.examples import ExampleSet
from repro.suites import all_benchmarks
from repro.suites.base import bounded_ite_grammar, bounded_plus_grammar, max_spec
from repro.sygus.problem import SyGuSProblem
from repro.unreal.approximate import check_examples_abstract, solve_abstract_gfa
from repro.unreal.result import Verdict
from repro.utils.errors import UnknownDomainError
from repro.utils.vectors import IntVector


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestDomainRegistry:
    def test_builtin_domains_are_registered(self):
        names = domain_names()
        for expected in ("numeric", "interval", "powerset", "product"):
            assert expected in names

    def test_create_returns_fresh_instances(self):
        first = create_domain("powerset")
        second = create_domain("powerset")
        assert first is not second  # powerset carries per-check state

    def test_create_passes_knobs(self):
        domain = create_domain("powerset", cap=7, max_examples=2)
        assert domain.cap == 7
        assert domain.max_examples == 2

    def test_unknown_domain_fails_loudly(self):
        with pytest.raises(UnknownDomainError, match="interval"):
            create_domain("no-such-domain")

    def test_resolve_accepts_instances_and_names(self):
        instance = IntervalDomain()
        assert resolve_domain(instance) is instance
        assert isinstance(resolve_domain("interval"), IntervalDomain)

    def test_duplicate_registration_is_an_error(self):
        from repro.utils.errors import ReproError

        with pytest.raises(ReproError, match="already registered"):

            @register_domain("interval")
            class Impostor(AbstractDomain):  # pragma: no cover - never used
                def bottom(self, sort, dimension): ...
                def join(self, left, right): ...
                def equal(self, left, right): ...
                def transfer(self, production, args, examples): ...
                def check(self, start_value, spec, examples): ...

    def test_registry_name_lands_on_class(self):
        assert get_domain_class("interval").registry_name == "interval"
        assert IntervalDomain().name == "interval"

    def test_combinator_name_reflects_components(self):
        assert create_domain("product").name == "interval*powerset"
        assert (
            create_domain("product", left="interval", right="numeric").name
            == "interval*numeric"
        )


# ---------------------------------------------------------------------------
# The one-variable decision procedure behind the interval check
# ---------------------------------------------------------------------------


def _random_one_var_formula(rng: random.Random):
    v = LinearExpression.variable("v")

    def atom():
        coefficient = rng.choice([-3, -2, -1, 1, 2, 3])
        constant = rng.randint(-10, 10)
        expression = v.scale(coefficient) + constant
        return rng.choice([atom_le, atom_lt, atom_ge, atom_eq])(expression, 0)

    clauses = [
        disjunction([atom() for _ in range(rng.randint(1, 3))])
        for _ in range(rng.randint(1, 3))
    ]
    return conjunction(clauses)


class TestSatisfiableOnInterval:
    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_brute_force_on_bounded_intervals(self, seed):
        rng = random.Random(seed)
        formula = _random_one_var_formula(rng)
        low = rng.randint(-15, 10)
        high = low + rng.randint(0, 12)
        interval = Interval(low, high)
        expected = any(
            formula.evaluate({"v": value}) for value in range(low, high + 1)
        )
        assert satisfiable_on_interval(formula, "v", interval) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_brute_force_on_unbounded_intervals(self, seed):
        rng = random.Random(1000 + seed)
        formula = _random_one_var_formula(rng)
        # Atoms above have thresholds within [-13, 13]; probing [-40, 40]
        # covers every region of the piecewise-constant truth function.
        for interval in (Interval(None, rng.randint(-5, 5)),
                         Interval(rng.randint(-5, 5), None),
                         Interval.top()):
            expected = any(
                formula.evaluate({"v": value})
                for value in range(-40, 41)
                if interval.contains(value)
            )
            assert satisfiable_on_interval(formula, "v", interval) == expected

    def test_empty_interval_is_unsat(self):
        formula = atom_ge(LinearExpression.variable("v"), 0)
        assert not satisfiable_on_interval(formula, "v", Interval.empty())

    def test_foreign_variables_overapproximate(self):
        formula = atom_eq(
            LinearExpression.variable("v") + LinearExpression.variable("w"), 0
        )
        assert satisfiable_on_interval(formula, "v", Interval(5, 5))


# ---------------------------------------------------------------------------
# Transfer soundness: every domain over-approximates bounded enumeration
# ---------------------------------------------------------------------------


def _soundness_grammars():
    return [
        bounded_plus_grammar(["x"], [0, 1], plus_budget=2, name="plus2"),
        bounded_plus_grammar(
            ["x"], [0, 2], plus_budget=1, with_ite=True,
            comparison_constants=[3], name="plus_ite",
        ),
        bounded_ite_grammar(["x"], [0, 1], ite_budget=1, name="ite1"),
    ]


def _contains(domain_name: str, value, vector: IntVector) -> bool:
    if domain_name == "interval":
        return value.contains(vector)
    if domain_name == "numeric":
        return value.contains(vector)
    if domain_name == "powerset":
        return value.is_top or vector in value.vectors
    # product of interval x powerset
    return value.left.contains(vector) and (
        value.right.is_top or vector in value.right.vectors
    )


@pytest.mark.parametrize("domain_name", ["numeric", "interval", "powerset", "product"])
def test_domains_overapproximate_enumeration(domain_name):
    examples = ExampleSet.of({"x": 1}, {"x": 3})
    for grammar in _soundness_grammars():
        solution = solve_abstract_gfa(grammar, examples, domain=domain_name)
        for term in grammar.generate(max_size=8, limit=120):
            vector = IntVector(list(evaluate(term, examples)))
            assert _contains(domain_name, solution.start_value, vector), (
                f"{domain_name}: {term} -> {vector} escapes "
                f"{solution.start_value} on {grammar.name}"
            )


# ---------------------------------------------------------------------------
# IfThenElse#: the two-mask transfer against the per-guard fold
# ---------------------------------------------------------------------------

_INTERVALS = st.one_of(
    st.just(Interval.empty()),
    st.just(Interval.top()),
    st.integers(-4, 4).map(lambda high: Interval(None, high)),
    st.integers(-4, 4).map(lambda low: Interval(low, None)),
    st.tuples(st.integers(-4, 4), st.integers(0, 4)).map(
        lambda pair: Interval(pair[0], pair[0] + pair[1])
    ),
)

_CONGRUENCES = st.one_of(
    st.just(Congruence.empty_value()),
    st.just(Congruence.top()),
    st.integers(-4, 4).map(Congruence.constant),
    st.tuples(st.integers(0, 5), st.integers(2, 6)).map(
        lambda pair: Congruence(pair[0] % pair[1], pair[1])
    ),
)


@st.composite
def _ite_arguments(draw):
    """``(guards, then, else)`` as a guard set and two component lists.

    Guard sets cover the empty, singleton and full (``2^d``) cases, sets
    whose guards all agree on coordinate 0, and arbitrary sets; a component
    list is all-bottom a quarter of the time.
    """
    dimension = draw(st.integers(1, 4))
    every = range(1 << dimension)
    arbitrary = st.frozensets(st.sampled_from(every))
    guard_bits = draw(
        st.one_of(
            st.just(frozenset()),
            st.sampled_from(every).map(lambda bits: frozenset([bits])),
            st.just(frozenset(every)),
            arbitrary.map(lambda guards: frozenset(bits | 1 for bits in guards)),
            arbitrary.map(lambda guards: frozenset(bits & ~1 for bits in guards)),
            arbitrary,
        )
    )
    guards = BoolVectorSet.from_packed(guard_bits, dimension)

    def components():
        if draw(st.integers(0, 3)) == 0:
            return [(Interval.empty(), Congruence.empty_value())] * dimension
        return draw(
            st.lists(
                st.tuples(_INTERVALS, _CONGRUENCES),
                min_size=dimension,
                max_size=dimension,
            )
        )

    return guards, components(), components()


def _fold_ite(guards, then_value, else_value, bottom):
    """The per-guard fold: join ``select(guard)`` over every guard."""
    result = bottom
    for guard in guards:
        result = result.join(then_value.select(guard, else_value))
    return result


def _product(components) -> ProductValue:
    return ProductValue(
        tuple(interval for interval, _ in components),
        tuple(congruence for _, congruence in components),
    )


class TestIteTwoMasks:
    @settings(max_examples=200, deadline=None)
    @given(_ite_arguments())
    def test_box_ite_matches_the_per_guard_fold(self, arguments):
        guards, then_components, else_components = arguments
        dimension = len(then_components)
        then_value = Box([interval for interval, _ in then_components])
        else_value = Box([interval for interval, _ in else_components])
        result = IntervalDomain().ite(guards, then_value, else_value, dimension)
        expected = _fold_ite(guards, then_value, else_value, Box.bottom(dimension))
        assert result == expected
        assert result.leq(expected) and expected.leq(result)

    @settings(max_examples=200, deadline=None)
    @given(_ite_arguments())
    def test_product_ite_matches_the_per_guard_fold(self, arguments):
        guards, then_components, else_components = arguments
        dimension = len(then_components)
        then_value = _product(then_components)
        else_value = _product(else_components)
        result = NumericProductDomain().ite(guards, then_value, else_value, dimension)
        expected = _fold_ite(
            guards, then_value, else_value, ProductValue.bottom(dimension)
        )
        assert result == expected


# ---------------------------------------------------------------------------
# Powerset exactness and capping
# ---------------------------------------------------------------------------


class TestPowersetDomain:
    def test_exact_on_finite_grammar(self):
        grammar = bounded_plus_grammar(["x"], [0, 1], plus_budget=1, name="tiny")
        examples = ExampleSet.of({"x": 2}, {"x": 5})
        domain = ExamplePowersetDomain()
        solution = solve_abstract_gfa(grammar, examples, domain=domain)
        enumerated = {
            IntVector(list(evaluate(term, examples)))
            for term in grammar.generate(max_size=10, limit=5000)
        }
        assert not domain.lost_exactness
        assert solution.start_value.vectors == frozenset(enumerated)

    def test_cap_widens_to_top(self):
        # Unbounded sums: {0, 1, 2, ...} outgrows any finite cap.
        from repro.suites.base import const_restricted_grammar

        grammar = const_restricted_grammar(["x"], [1], with_ite=False, name="sums")
        domain = ExamplePowersetDomain(cap=8)
        solution = solve_abstract_gfa(
            grammar, ExampleSet.of({"x": 1}), domain=domain
        )
        assert solution.start_value.is_top
        assert domain.lost_exactness

    def test_two_sided_check_matches_naysl(self):
        # max(x, y) without conditionals is unrealizable on this witness
        # set; with conditionals it is realizable on the same examples.
        # Both grammars have finitely many behaviors, so the powerset check
        # is exact in both directions and must agree with exact naySL.
        examples = ExampleSet.of(
            {"x": 0, "y": 1}, {"x": 1, "y": 0}, {"x": 1, "y": 1}, {"x": 2, "y": 0}
        )
        spec = max_spec(["x", "y"])
        for with_ite, expected in (
            (False, Verdict.UNREALIZABLE),
            (True, Verdict.REALIZABLE),
        ):
            grammar = bounded_plus_grammar(
                ["x", "y"], [0, 1], plus_budget=1, with_ite=with_ite,
                name=f"max_ite_{with_ite}",
            )
            problem = SyGuSProblem(f"max_{with_ite}", grammar, spec, logic="CLIA")
            fin = check_examples_abstract(
                problem, examples, domain=ExamplePowersetDomain(cap=256)
            )
            exact = create_engine("naySL").check(problem, examples)
            assert fin.details["exact"] is True
            assert fin.verdict == expected
            assert exact.verdict == expected

    def test_pre_check_bails_on_large_example_sets(self):
        examples = ExampleSet.of(*({"x": value} for value in range(9)))
        grammar = bounded_plus_grammar(["x"], [0], plus_budget=1, name="small")
        problem = SyGuSProblem(
            "small", grammar, max_spec(["x"]), logic="LIA"
        )
        result = check_examples_abstract(problem, examples, domain="powerset")
        assert result.verdict == Verdict.UNKNOWN
        assert result.details["reason"] == "example set exceeds the powerset budget"

    def test_inexact_solve_never_claims_realizable(self):
        from repro.suites.base import const_restricted_grammar, scaled_variable_spec

        grammar = const_restricted_grammar(["x"], [1], with_ite=False, name="sums")
        problem = SyGuSProblem(
            "sums", grammar, scaled_variable_spec("x", 1, 0), logic="LIA"
        )
        # f(x) = x is realizable here (derive x... the grammar lacks a bare
        # variable leaf? it has one via _leaf_productions), so an exact
        # engine would say realizable; the capped powerset must say UNKNOWN.
        result = check_examples_abstract(
            problem,
            ExampleSet.of({"x": 1}),
            domain=ExamplePowersetDomain(cap=4),
        )
        assert result.verdict in (Verdict.UNKNOWN, Verdict.UNREALIZABLE)
        assert result.verdict != Verdict.REALIZABLE


# ---------------------------------------------------------------------------
# The reduced-product combinator
# ---------------------------------------------------------------------------


class TestReducedProduct:
    def test_refutes_when_either_component_refutes(self):
        examples = ExampleSet.of({"x": 0})
        grammar = bounded_plus_grammar(["x"], [1], plus_budget=1, name="band")
        from repro.suites.base import scaled_variable_spec

        # Demands f(0) = 5; the box [0, 2] refutes it.
        problem = SyGuSProblem(
            "band", grammar, scaled_variable_spec("x", 1, 5), logic="LIA"
        )
        product = check_examples_abstract(problem, examples, domain="product")
        interval = check_examples_abstract(problem, examples, domain="interval")
        assert interval.verdict == Verdict.UNREALIZABLE
        assert product.verdict == Verdict.UNREALIZABLE
        assert product.details["component"] == "interval"

    def test_survives_a_component_pre_check_bailout(self):
        # 8 examples exceed the powerset budget; the product must degrade
        # to its interval component (not bail out wholesale) and still
        # refute what intervals alone refute.
        from repro.suites.base import scaled_variable_spec

        grammar = bounded_plus_grammar(["x"], [1], plus_budget=1, name="band8")
        problem = SyGuSProblem(
            "band8", grammar, scaled_variable_spec("x", 1, 5), logic="LIA"
        )
        examples = ExampleSet.of(*({"x": value} for value in range(8)))
        result = check_examples_abstract(problem, examples, domain="product")
        assert result.verdict == Verdict.UNREALIZABLE
        assert result.details["component"] == "interval"
        assert result.details.get("inert_component") is True

    def test_bails_only_when_every_component_bails(self):
        domain = create_domain("product", left="powerset", right="powerset")
        examples = ExampleSet.of(*({"x": value} for value in range(8)))
        bail = domain.pre_check(examples)
        assert bail is not None
        assert bail.verdict == Verdict.UNKNOWN

    def test_component_knobs(self):
        domain = create_domain("product", left="interval", right="numeric")
        assert isinstance(domain.left, IntervalDomain)
        assert isinstance(domain.right, NumericProductDomain)

    def test_guard_reduction_intersects_truth_vectors(self):
        from repro.domains.boolvectors import BoolVectorSet
        from repro.utils.vectors import BoolVector

        domain = create_domain("product")
        left = domain.from_vector(IntVector([1, 4]))
        right = domain.from_vector(IntVector([2, 3]))
        truth = domain.compare("LessThan", left, right, 2)
        assert truth == BoolVectorSet([BoolVector([True, False])], 2)


# ---------------------------------------------------------------------------
# The CI soundness differential over all 141 suite benchmarks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def suite_with_examples():
    from repro.suites import benchmark_examples

    return [
        (benchmark, benchmark_examples(benchmark))
        for benchmark in all_benchmarks(include_scaling=True)
    ]


@pytest.fixture(scope="session")
def naysl_verdicts(suite_with_examples):
    engine = create_engine("naySL", timeout_seconds=120)
    return {
        str(benchmark): engine.check(benchmark.problem, examples).verdict
        for benchmark, examples in suite_with_examples
    }


@pytest.mark.parametrize("engine_name", ["nayInt", "nayFin"])
def test_domain_engines_sound_on_full_suite(
    engine_name, suite_with_examples, naysl_verdicts
):
    """nayInt/nayFin never contradict exact naySL on any suite benchmark."""
    engine = create_engine(engine_name, timeout_seconds=120)
    decided = 0
    for benchmark, examples in suite_with_examples:
        verdict = engine.check(benchmark.problem, examples).verdict
        exact = naysl_verdicts[str(benchmark)]
        if verdict == Verdict.UNREALIZABLE:
            decided += 1
            assert exact == Verdict.UNREALIZABLE, (
                f"{engine_name} unsoundly refuted {benchmark} "
                f"(naySL says {exact.value})"
            )
        if verdict == Verdict.REALIZABLE:
            assert exact == Verdict.REALIZABLE, (
                f"{engine_name} unsoundly accepted {benchmark} "
                f"(naySL says {exact.value})"
            )
    # The cheap domains must carry real weight, not vacuously pass.
    assert decided >= 30, f"{engine_name} decided only {decided} instances"


def test_staged_matches_portfolio_verdicts_with_fewer_exact_calls(
    suite_with_examples, naysl_verdicts
):
    """The staged strategy's acceptance gate, over the full suite.

    ``engine="portfolio"`` always races exact naySL, and every definitive
    engine in the race is sound, so the portfolio's verdict on these checks
    is exactly naySL's verdict.  The staged strategy must reproduce it on
    every benchmark while invoking the exact engine strictly fewer times
    than the portfolio (which launches naySL once per request).
    """
    from repro.api import Solver

    solver = Solver(engine="staged", timeout_seconds=120)
    exact_calls = 0
    for benchmark, examples in suite_with_examples:
        response = solver.check(benchmark, examples=examples)
        reference = naysl_verdicts[str(benchmark)]
        assert response.verdict == reference.value, (
            f"staged disagrees with the portfolio reference on {benchmark}: "
            f"{response.verdict} vs {reference.value} "
            f"(stages: {response.details.get('staged', {}).get('stages')})"
        )
        exact_calls += response.solver_stats["staged_exact_calls"]
    total = len(suite_with_examples)
    assert exact_calls < total, (
        f"staging saved nothing: {exact_calls} exact calls on {total} requests"
    )


def test_domain_engines_sound_on_single_example_prefixes(naysl_verdicts):
    """The realizable direction: single-example sets make naySL answer
    REALIZABLE often; the approximate engines must never refute those."""
    engine_int = create_engine("nayInt", timeout_seconds=120)
    engine_fin = create_engine("nayFin", timeout_seconds=120)
    exact = create_engine("naySL", timeout_seconds=120)
    realizable_seen = 0
    for benchmark in all_benchmarks(include_scaling=False)[::4]:
        examples = ExampleSet().resized(benchmark.problem.variables, 1, seed=1)
        exact_verdict = exact.check(benchmark.problem, examples).verdict
        if exact_verdict == Verdict.REALIZABLE:
            realizable_seen += 1
            for engine in (engine_int, engine_fin):
                verdict = engine.check(benchmark.problem, examples).verdict
                assert verdict != Verdict.UNREALIZABLE, (
                    f"{engine.name} refuted {benchmark} on a realizable prefix"
                )
    assert realizable_seen > 0
