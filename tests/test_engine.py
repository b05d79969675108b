"""Tests for the engine subsystem: registry, checker injection, runner,
cache accounting, and JSONL persistence."""

from __future__ import annotations

import pytest

from repro.baselines import NayHorn, NaySL, Nope
from repro.engine import (
    ExperimentRunner,
    Task,
    UnknownEngineError,
    apply_timeout_policy,
    cache_stats,
    clear_cache,
    create_engine,
    engine_names,
    get_engine_class,
    render_stable,
    stable_fingerprint,
    stable_view,
)
from repro.engine.cache import GfaCache, grammar_fingerprint
from repro.engine.results import ResultsStore
from repro.experiments import ENGINE_ORDER, fig2, table1
from repro.semantics.examples import ExampleSet
from repro.suites import get_benchmark
from repro.suites.scaling import chain_grammar, example_set
from repro.unreal.cegis import NayConfig, NaySolver
from repro.unreal.result import CheckResult, Verdict
from repro.utils.errors import ReproError


class TestRegistry:
    def test_builtin_engines_registered(self):
        names = engine_names()
        for expected in ("naySL", "nayHorn", "nope"):
            assert expected in names
        assert tuple(name for name in ENGINE_ORDER) == ("naySL", "nayHorn", "nope")

    def test_create_engine_returns_registered_class(self):
        assert isinstance(create_engine("naySL"), NaySL)
        assert isinstance(create_engine("nayHorn"), NayHorn)
        assert isinstance(create_engine("nope"), Nope)
        assert get_engine_class("naySL") is NaySL

    def test_create_engine_passes_knobs(self):
        engine = create_engine("naySL", seed=7, timeout_seconds=12.0, stratify=False)
        assert engine.seed == 7
        assert engine.timeout_seconds == 12.0
        assert engine.name == "naySL-nostrat"

    def test_unknown_engine_error(self):
        with pytest.raises(UnknownEngineError) as excinfo:
            create_engine("cvc4")
        assert "cvc4" in str(excinfo.value)
        assert "naySL" in str(excinfo.value)  # lists what is available
        assert issubclass(UnknownEngineError, ReproError)

    def test_configure_returns_new_engine(self):
        engine = create_engine("nayHorn", seed=0)
        tuned = engine.configure(timeout_seconds=5.0)
        assert tuned is not engine
        assert tuned.timeout_seconds == 5.0
        assert engine.timeout_seconds is None  # original untouched
        with pytest.raises(ValueError):
            engine.configure(no_such_knob=1)


class TestCheckerInjection:
    def test_config_checker_replaces_dispatch(self, running_example_problem):
        calls = []

        def checker(problem, examples):
            calls.append(len(examples))
            return CheckResult(verdict=Verdict.UNREALIZABLE, examples=examples)

        solver = NaySolver(NayConfig(seed=0, checker=checker))
        result = solver.solve(running_example_problem)
        assert result.verdict == Verdict.UNREALIZABLE
        assert calls, "injected checker was never invoked"
        # The injection goes through configuration, not method assignment.
        assert "check_examples" not in vars(solver)

    def test_nope_solve_uses_injected_checker(self, running_example_problem):
        result = Nope(seed=0).solve(
            running_example_problem, initial_examples=ExampleSet.of({"x": 1})
        )
        assert result.verdict == Verdict.UNREALIZABLE


class TestTimeoutPolicy:
    def test_two_sided_verdicts_survive_late_finishes(self):
        assert (
            apply_timeout_policy(Verdict.UNREALIZABLE, elapsed=10.0, timeout=1.0)
            == Verdict.UNREALIZABLE
        )
        assert (
            apply_timeout_policy(Verdict.REALIZABLE, elapsed=10.0, timeout=1.0)
            == Verdict.REALIZABLE
        )

    def test_undetermined_late_finishes_time_out(self):
        assert (
            apply_timeout_policy(Verdict.UNKNOWN, elapsed=10.0, timeout=1.0)
            == Verdict.TIMEOUT
        )

    def test_within_deadline_untouched(self):
        for verdict in Verdict:
            assert apply_timeout_policy(verdict, elapsed=0.5, timeout=1.0) == verdict
        assert apply_timeout_policy(Verdict.UNKNOWN, 100.0, None) == Verdict.UNKNOWN


def _small_tasks():
    return [
        Task(kind="check", engine=engine,
             benchmark="plane1", suite="LimitedPlus", timeout=60.0)
        for engine in ENGINE_ORDER
    ] + [
        Task(kind="check", engine="naySL",
             benchmark="plane2", suite="LimitedPlus", timeout=60.0),
        Task(kind="gfa", scaling_size=5, example_count=2),
        # An unregistered scaling benchmark: travels as SyGuS text.
        Task(kind="check", engine="nayHorn", scaling_size=4, example_count=2),
    ]


class TestRunner:
    def test_serial_rows_are_ordered_and_complete(self):
        rows = ExperimentRunner(workers=1).run(_small_tasks())
        assert [row.get("tool") for row in rows[:3]] == list(ENGINE_ORDER)
        assert rows[0]["verdict"] == "unrealizable"
        assert rows[4]["semilinear_size"] >= 1

    def test_parallel_matches_serial_byte_for_byte(self):
        serial = ExperimentRunner(workers=1).run(_small_tasks())
        parallel = ExperimentRunner(workers=4).run(_small_tasks())
        assert stable_fingerprint(serial) == stable_fingerprint(parallel)
        assert render_stable(serial) == render_stable(parallel)
        assert render_stable(serial)  # non-empty

    def test_run_does_not_mutate_caller_tasks(self):
        tasks = [Task(kind="gfa", scaling_size=3, example_count=1)]
        ExperimentRunner(workers=1, timeout=60.0).run(tasks)
        assert tasks[0].timeout is None  # reusable with a different runner

    def test_stable_view_strips_timing(self):
        row = {"tool": "naySL", "verdict": "unrealizable", "seconds": 1.23}
        assert "seconds" not in stable_view(row)
        assert stable_view(row)["tool"] == "naySL"

    def test_table1_parallel_equals_serial(self, monkeypatch):
        # A two-benchmark slice of Table 1 keeps this determinism check fast;
        # the full quick table goes through the identical code path.
        import repro.experiments as experiments_module

        monkeypatch.setattr(
            experiments_module,
            "QUICK_TABLE1",
            [("plane1", "LimitedPlus"), ("plane2", "LimitedPlus")],
        )
        serial = table1(quick=True, workers=1, timeout=60.0)
        parallel = table1(quick=True, workers=4, timeout=60.0)
        assert len(serial) == 2 * len(ENGINE_ORDER)
        assert stable_fingerprint([r.as_dict() for r in serial]) == stable_fingerprint(
            [r.as_dict() for r in parallel]
        )


class TestCache:
    def test_fig2_normalizes_each_grammar_once_per_size(self):
        clear_cache()
        fig2(sizes=[3, 5], example_counts=(1, 2))
        stats = cache_stats()
        # 2 sizes x 2 example counts = 4 points, but each scaling grammar is
        # constructed/normalized exactly once per size.
        assert stats.normalize_misses == 2
        assert stats.normalize_hits == 2
        # The equation system depends on the example set, so every point
        # builds its own.
        assert stats.equations_misses == 4
        assert stats.equations_hits == 0

    def test_fingerprint_is_structural_not_nominal(self):
        first = chain_grammar(3, name="a")
        second = chain_grammar(3, name="b")
        assert grammar_fingerprint(first) == grammar_fingerprint(second)
        assert grammar_fingerprint(first) != grammar_fingerprint(chain_grammar(4))

    def test_cache_hit_returns_same_object(self):
        cache = GfaCache()
        grammar = chain_grammar(4)
        first = cache.normalized(grammar)
        second = cache.normalized(chain_grammar(4))
        assert first is second
        assert cache.stats.normalize_misses == 1
        assert cache.stats.normalize_hits == 1
        examples = example_set(2)
        system_one = cache.lia_equations(first, examples)
        system_two = cache.lia_equations(second, examples)
        assert system_one is system_two
        assert cache.stats.equations_hits == 1

    def test_lru_eviction_bounds_entries(self):
        cache = GfaCache(max_entries=2)
        for length in (2, 3, 4, 5):
            cache.normalized(chain_grammar(length))
        assert len(cache._normalized) == 2
        # Oldest entry evicted: re-requesting it misses again.
        cache.normalized(chain_grammar(2))
        assert cache.stats.normalize_misses == 5


class TestResultsStore:
    def test_jsonl_round_trip(self, tmp_path):
        tasks = [
            Task(kind="check", engine="naySL",
                 benchmark="plane1", suite="LimitedPlus", timeout=60.0),
            Task(kind="gfa", scaling_size=3, example_count=1),
        ]
        runner = ExperimentRunner(workers=1, out=str(tmp_path / "results"))
        rows = runner.run(tasks, experiment="smoke")
        store = ResultsStore(tmp_path / "results")
        persisted = store.load("smoke")
        assert len(persisted) == len(rows)
        assert store.path_for("smoke").name == "smoke.jsonl"
        for row, record in zip(rows, persisted):
            for key, value in row.items():
                assert record[key] == value
            assert record["experiment"] == "smoke"
            assert record["workers"] == 1

    def test_latest_run_and_diff(self, tmp_path):
        store = ResultsStore(tmp_path)
        first = [{"benchmark": "b", "tool": "naySL", "verdict": "unrealizable", "seconds": 1.0}]
        store.append("exp", first)
        assert store.diff_latest("exp", first) == []
        flipped = [{"benchmark": "b", "tool": "naySL", "verdict": "unknown", "seconds": 9.9}]
        changed = store.diff_latest("exp", flipped)
        assert len(changed) == 1
        # Timing-only changes are not regressions.
        slower = [{"benchmark": "b", "tool": "naySL", "verdict": "unrealizable", "seconds": 99.0}]
        assert store.diff_latest("exp", slower) == []

    def test_empty_experiment_loads_empty(self, tmp_path):
        store = ResultsStore(tmp_path)
        assert store.load("missing") == []
        assert store.latest_run("missing") == []


class TestCliIntegration:
    def test_engines_subcommand(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ENGINE_ORDER:
            assert name in out

    def test_check_examples_override(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["check", "plane1", "--tool", "naySL", "--examples", "2"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out

    def test_experiments_workers_flag(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["experiments", "fig4", "--workers", "2"]) == 0
        assert "stratified_seconds" in capsys.readouterr().out

    def test_resize_examples_tops_up_deterministically(self):
        benchmark = get_benchmark("plane1", "LimitedPlus")
        witness = benchmark.witness_examples
        variables = benchmark.problem.variables
        grown = witness.resized(variables, len(witness) + 2)
        assert len(grown) == len(witness) + 2
        again = witness.resized(variables, len(witness) + 2)
        assert grown == again
        shrunk = witness.resized(variables, 1)
        assert len(shrunk) == 1
