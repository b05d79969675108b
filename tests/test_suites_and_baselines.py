"""Tests for the benchmark suites, the Horn encoding, and the three baselines."""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.baselines import NayHorn, NaySL, Nope
from repro.horn.clauses import encode_gfa_as_horn
from repro.semantics.examples import ExampleSet
from repro.suites import all_benchmarks, benchmarks_by_suite, get_benchmark
from repro.suites.scaling import chain_grammar, example_set, scaling_suite
from repro.unreal.result import Verdict
from repro.utils.errors import ReproError
from tests.conftest import brute_force_witness

ALL_BENCHMARKS = all_benchmarks()
SUITES = benchmarks_by_suite()

#: A fast, representative subset whose witnesses naySL decides in well under a
#: second each; used for the end-to-end soundness checks.
FAST_WITNESS_BENCHMARKS = [
    ("plane1", "LimitedPlus"),
    ("plane2", "LimitedPlus"),
    ("guard1", "LimitedPlus"),
    ("guard3", "LimitedPlus"),
    ("search_2", "LimitedPlus"),
    ("max2_plus", "LimitedPlus"),
    ("example1", "LimitedIf"),
    ("sum_2_5", "LimitedIf"),
    ("array_search_2", "LimitedConst"),
    ("array_sum_2_5", "LimitedConst"),
    ("mpg_example1", "LimitedConst"),
    ("mpg_guard1", "LimitedConst"),
    ("mpg_ite1", "LimitedConst"),
    ("mpg_plane2", "LimitedConst"),
]


class TestSuiteStructure:
    def test_suite_sizes_match_paper(self):
        assert len(SUITES["LimitedPlus"]) == 30
        assert len(SUITES["LimitedIf"]) == 57
        assert len(SUITES["LimitedConst"]) == 45
        assert len(ALL_BENCHMARKS) == 132

    def test_benchmark_names_unique_within_suite(self):
        for suite, benchmarks in SUITES.items():
            names = [benchmark.name for benchmark in benchmarks]
            assert len(names) == len(set(names)), f"duplicate names in {suite}"

    def test_lookup(self):
        assert get_benchmark("max2", "LimitedIf").suite == "LimitedIf"
        # A name-only lookup takes the first match in suite order.
        assert get_benchmark("guard1", "LimitedIf").suite == "LimitedIf"
        assert get_benchmark("guard1").suite == "LimitedPlus"
        with pytest.raises(ReproError, match="unknown benchmark 'does-not-exist'"):
            get_benchmark("does-not-exist")
        # A known name in the wrong suite is unknown there, and says where.
        with pytest.raises(
            ReproError, match="unknown benchmark 'plane1' in suite 'LimitedIf'"
        ):
            get_benchmark("plane1", "LimitedIf")

    def test_lookup_returns_the_shared_objects(self):
        listed = all_benchmarks(include_scaling=True)
        assert len(listed) == 141
        for benchmark in listed:
            found = get_benchmark(benchmark.name, benchmark.suite)
            assert (found.name, found.suite) == (benchmark.name, benchmark.suite)
            assert found is benchmark
            assert get_benchmark(benchmark.name, benchmark.suite) is found

    def test_returned_lists_are_fresh(self):
        listed = all_benchmarks()
        listed.clear()
        by_suite = benchmarks_by_suite(include_scaling=True)
        by_suite["LimitedPlus"].pop()
        del by_suite["LimitedIf"]
        assert all_benchmarks() == ALL_BENCHMARKS
        assert len(benchmarks_by_suite(include_scaling=True)["LimitedPlus"]) == 30
        assert set(benchmarks_by_suite(include_scaling=True)) == {
            "LimitedPlus",
            "LimitedIf",
            "LimitedConst",
            "Scaling",
        }

    def test_benchmarks_are_frozen(self):
        benchmark = get_benchmark("plane1", "LimitedPlus")
        with pytest.raises(dataclasses.FrozenInstanceError):
            benchmark.expected_verdict = "realizable"

    def test_suites_are_built_once_per_process(self, monkeypatch):
        from repro.api import Solver
        from repro.suites import registry

        get_benchmark("plane1", "LimitedPlus")

        def rebuilt(*args, **kwargs):
            raise AssertionError("suite rebuilt after the first lookup")

        for builder in (
            "limited_plus_suite",
            "limited_if_suite",
            "limited_const_suite",
            "scaling_suite",
        ):
            monkeypatch.setattr(registry, builder, rebuilt)
        solver = Solver("nayInt")
        for name, suite in FAST_WITNESS_BENCHMARKS[:3]:
            benchmark = get_benchmark(name, suite)
            response = solver.check(benchmark, benchmark.witness_examples)
            assert response.error is None, response.error
            assert response.verdict == "unrealizable"

    def test_concurrent_first_lookups_build_one_index(self, monkeypatch):
        from repro.suites import registry

        builds = []
        build = registry._build_index

        def counted_build():
            builds.append(None)
            return build()

        monkeypatch.setattr(registry, "_INDEX", None)
        monkeypatch.setattr(registry, "_build_index", counted_build)
        threads_count = 8
        barrier = threading.Barrier(threads_count)
        found = []

        def lookup():
            barrier.wait(timeout=30)
            found.append(get_benchmark("plane1", "LimitedPlus"))

        threads = [threading.Thread(target=lookup) for _ in range(threads_count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        assert len(found) == threads_count
        assert all(benchmark is found[0] for benchmark in found)

    @pytest.mark.parametrize(
        "entry", ALL_BENCHMARKS, ids=[str(b) for b in ALL_BENCHMARKS]
    )
    def test_benchmark_well_formed(self, entry):
        """Every generated benchmark has a CLIA grammar, a spec over its own
        variables, and (when recorded) witness examples over those variables."""
        grammar = entry.problem.grammar
        assert grammar.is_clia()
        assert grammar.num_nonterminals >= 1
        assert grammar.num_productions >= 2
        spec_variables = set(entry.problem.variables)
        assert set(grammar.variables()) <= spec_variables
        if entry.witness_examples is not None and len(entry.witness_examples):
            assert set(entry.witness_examples.variables()) == spec_variables

    @pytest.mark.parametrize("name,suite", FAST_WITNESS_BENCHMARKS)
    def test_witnesses_prove_unrealizability(self, name, suite):
        benchmark = get_benchmark(name, suite)
        result = NaySL(seed=0).check(benchmark.problem, benchmark.witness_examples)
        assert result.verdict == Verdict.UNREALIZABLE

    @pytest.mark.parametrize("name,suite", FAST_WITNESS_BENCHMARKS[:8])
    def test_witness_verdicts_agree_with_brute_force(self, name, suite):
        benchmark = get_benchmark(name, suite)
        witness = brute_force_witness(
            benchmark.problem, benchmark.witness_examples, max_size=6
        )
        assert witness is None, f"{name}: found {witness} despite UNREALIZABLE verdict"

    def test_scaling_suite_grammar_sizes(self):
        for benchmark in scaling_suite([3, 6, 9]):
            assert benchmark.problem.grammar.num_nonterminals >= 3

    def test_chain_grammar_semantics(self):
        from repro.semantics.evaluator import evaluate

        grammar = chain_grammar(3)
        examples = example_set(1)
        outputs = {evaluate(term, examples)[0] for term in grammar.generate(max_size=14)}
        assert outputs <= {0, 3, 6, 9, 12}


class TestHornEncoding:
    def test_clause_shapes(self, running_example_problem):
        examples = ExampleSet.of({"x": 1}, {"x": 2})
        system = encode_gfa_as_horn(
            running_example_problem.grammar, examples, running_example_problem.spec
        )
        rendered = system.render()
        assert "declare-rel" in rendered
        assert "(rule" in rendered
        # One clause per production of the normalised grammar.
        assert len(system.clauses) >= running_example_problem.grammar.num_productions

    def test_clia_encoding_supported(self, clia_example_problem):
        examples = ExampleSet.of({"x": 1})
        system = encode_gfa_as_horn(
            clia_example_problem.grammar, examples, clia_example_problem.spec
        )
        assert any("ite" in clause.constraint for clause in system.clauses)


class TestBaselines:
    def test_nay_sl_and_horn_agree_on_unrealizable(self, running_example_problem):
        examples = ExampleSet.of({"x": 1})
        exact = NaySL(seed=0).check(running_example_problem, examples)
        approximate = NayHorn(seed=0).check(running_example_problem, examples)
        assert exact.verdict == Verdict.UNREALIZABLE
        assert approximate.verdict in (Verdict.UNREALIZABLE, Verdict.UNKNOWN)

    def test_nope_matches_nayhorn_verdicts(self, monkeypatch):
        """§8.1: nayHorn and nope solve identical instances.  Without SeaHorn
        nope decides as nayHorn does: same certificate, one abstract
        fixpoint per check."""
        import repro.unreal.approximate as approximate

        fixpoints = []
        solve_abstract_gfa = approximate.solve_abstract_gfa

        def counting(*args, **kwargs):
            fixpoints.append(1)
            return solve_abstract_gfa(*args, **kwargs)

        monkeypatch.setattr(approximate, "solve_abstract_gfa", counting)
        for name, suite in FAST_WITNESS_BENCHMARKS[:6]:
            benchmark = get_benchmark(name, suite)
            horn = NayHorn(seed=0).check(benchmark.problem, benchmark.witness_examples)
            fixpoints.clear()
            nope = Nope(seed=0).check(benchmark.problem, benchmark.witness_examples)
            assert horn.verdict == nope.verdict
            assert horn.certificate == nope.certificate
            assert len(fixpoints) == 1, f"{suite}/{name}"

    def test_nope_program_encoding(self, running_example_problem):
        examples = ExampleSet.of({"x": 1})
        program = Nope().program(running_example_problem, examples)
        rendered = program.render()
        assert "proc gen_Start" in rendered
        assert "assert" in rendered

    def test_nay_sl_cegis_on_benchmark(self):
        benchmark = get_benchmark("plane1", "LimitedPlus")
        result = NaySL(seed=0, timeout_seconds=120).solve(benchmark.problem)
        assert result.verdict == Verdict.UNREALIZABLE

    def test_tool_names(self):
        assert NaySL().name == "naySL"
        assert NaySL(stratify=False).name == "naySL-nostrat"
        assert NayHorn().name == "nayHorn"
        assert Nope().name == "nope"


class TestExperimentsHarness:
    def test_fig2_quick(self):
        from repro.experiments import fig2

        points = fig2(sizes=[3, 5], example_counts=(1,))
        assert len(points) == 2
        assert all(point["seconds"] >= 0 for point in points)

    def test_fig4_quick(self):
        from repro.experiments import fig4

        points = fig4(sizes=[5], example_count=1)
        assert len(points) == 1

    def test_render_rows(self):
        from repro.experiments import render_rows

        text = render_rows([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        assert "a" in text and "22" in text

    def test_table1_quick_cells_are_witness_checks(self):
        """Each quick Table 1 pick resolves by (suite, name) and its cells
        check exactly the benchmark's recorded witness set."""
        from repro.experiments import ENGINE_ORDER, QUICK_TABLE1, table1

        rows = table1(quick=True, timeout=60)
        for row in rows:
            witness = get_benchmark(row.benchmark, row.suite).witness_examples
            assert witness is not None, f"{row.suite}/{row.benchmark}"
            assert row.examples == len(witness), f"{row.suite}/{row.benchmark}"
        assert len(rows) == len(QUICK_TABLE1) * len(ENGINE_ORDER)
        assert {(row.benchmark, row.suite) for row in rows} == set(QUICK_TABLE1)

    def test_table2_single_cell(self):
        from repro.experiments import table2

        rows = table2(quick=True, timeout=60)
        nay_rows = [row for row in rows if row.tool == "naySL"]
        assert all(row.verdict == "unrealizable" for row in nay_rows)
