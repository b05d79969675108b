"""Unit tests for the staged portfolio strategy (``engine="staged"``)."""

from __future__ import annotations

import pytest

from repro.api import STAGED_ENGINE, SolveRequest, Solver, execute_request
from repro.api.portfolio import (
    EXACT_ENGINES,
    STAGED_DEFAULT_ORDER,
    solve_staged,
    staged_engines,
)
from repro.cli import main as cli_main


class TestStagedOrder:
    def test_default_order_is_cheap_to_expensive(self):
        request = SolveRequest(benchmark="plane1", engine=STAGED_ENGINE)
        assert staged_engines(request) == list(STAGED_DEFAULT_ORDER)
        assert STAGED_DEFAULT_ORDER[-1] in EXACT_ENGINES
        assert "nope" not in STAGED_DEFAULT_ORDER  # nayHorn subsumes it

    def test_explicit_pool_is_honoured_in_order(self):
        request = SolveRequest(
            benchmark="plane1", engine=STAGED_ENGINE, engines=["naySL", "nayInt"]
        )
        assert staged_engines(request) == ["naySL", "nayInt"]


class TestStagedExecution:
    def test_cheap_stage_short_circuits(self):
        # plane1 is decided by the interval domain: no later stage may run.
        response = execute_request(
            SolveRequest(benchmark="plane1", engine=STAGED_ENGINE)
        )
        assert response.verdict == "unrealizable"
        assert response.engine == "nayInt"
        assert response.engines_raced == ["nayInt"]
        assert response.solver_stats["staged_stages_run"] == 1
        assert response.solver_stats["staged_exact_calls"] == 0
        assert response.details["staged"]["winner"] == "nayInt"
        assert response.details["staged"]["escalated_past"] == []

    def test_escalates_to_exact_on_unknown(self):
        # max2's witness set defeats every cheap abstraction: the staged run
        # must walk the whole ladder and end on the exact engine's verdict.
        response = execute_request(
            SolveRequest(benchmark="max2", engine=STAGED_ENGINE)
        )
        assert response.verdict == "unrealizable"
        assert response.engine == "naySL"
        assert response.solver_stats["staged_exact_calls"] == 1
        stages = [entry["engine"] for entry in response.details["staged"]["stages"]]
        assert stages == list(STAGED_DEFAULT_ORDER)

    def test_per_stage_verdicts_are_recorded(self):
        response = execute_request(
            SolveRequest(benchmark="max2", engine=STAGED_ENGINE)
        )
        stages = response.details["staged"]["stages"]
        assert all(
            set(entry) == {"engine", "verdict", "elapsed_seconds"}
            for entry in stages
        )
        assert [entry["verdict"] for entry in stages[:-1]] == ["unknown"] * (
            len(stages) - 1
        )

    def test_solver_stats_aggregate_across_stages(self):
        response = execute_request(
            SolveRequest(benchmark="max2", engine=STAGED_ENGINE)
        )
        # The exact stage consults the logic core; its counters (which may
        # be cache hits when another test warmed the process-wide caches)
        # must be aggregated alongside the staged_* counters.
        assert "sat_checks" in response.solver_stats
        logic_work = sum(
            value
            for key, value in response.solver_stats.items()
            if not key.startswith("staged_")
        )
        assert logic_work > 0
        assert (
            response.solver_stats["staged_cheap_calls"]
            + response.solver_stats["staged_exact_calls"]
            == response.solver_stats["staged_stages_run"]
        )

    def test_best_loser_when_no_stage_is_definitive(self):
        # An approximate-only pool on an instance it cannot decide: the
        # staged response must surface the best non-definitive outcome, not
        # invent a verdict.
        response = execute_request(
            SolveRequest(
                benchmark="array_search_2",
                engine=STAGED_ENGINE,
                engines=["nayInt", "nayHorn"],
            )
        )
        assert response.verdict == "unknown"
        assert response.solver_stats["staged_stages_run"] == 2

    def test_empty_pool_falls_back_to_default_order(self):
        response = solve_staged(
            SolveRequest(benchmark="plane1", engine=STAGED_ENGINE, engines=[])
        )
        assert response.verdict == "unrealizable"
        assert response.details["staged"]["order"] == list(STAGED_DEFAULT_ORDER)

    def test_unknown_engine_in_pool_degrades_to_error_leg(self):
        response = execute_request(
            SolveRequest(
                benchmark="plane1",
                engine=STAGED_ENGINE,
                engines=["no-such-engine", "nayInt"],
            )
        )
        # The bogus leg yields an error response; the real leg still wins.
        assert response.verdict == "unrealizable"
        assert response.engine == "nayInt"

    def test_stages_see_the_prune_tag(self):
        # plane1 is decided by the nayInt stage, which must run pruned.
        tags = {"prune": "oe"}
        staged = Solver(engine=STAGED_ENGINE).check("plane1", tags=tags)
        single = Solver(engine="nayInt").check("plane1", tags=tags)
        assert staged.engine == "nayInt"
        assert staged.solver_stats["grammar_states"] == (
            single.solver_stats["grammar_states"]
        )

    def test_sizes_and_settings_are_not_summed_across_stages(self):
        # max2 walks the whole ladder, and every stage prunes the same
        # grammar: the response reports the last stage's grammar size and
        # nayFin's powerset settings, each as one engine run reports it.
        tags = {"prune": "oe"}
        staged = Solver(engine=STAGED_ENGINE).check("max2", tags=tags).solver_stats
        exact = Solver(engine="naySL").check("max2", tags=tags).solver_stats
        finite = Solver(engine="nayFin").check("max2", tags=tags).solver_stats
        assert staged["staged_stages_run"] == len(STAGED_DEFAULT_ORDER)
        for key in ("grammar_states", "grammar_productions_pruned"):
            assert staged[key] == exact[key], key
        for key in ("powerset_cap", "powerset_max_examples"):
            assert staged[key] == finite[key], key

    def test_stages_see_the_fault_plan(self):
        tags = {"faults": "error@*"}
        assert Solver(engine="nayInt").check("plane1", tags=tags).verdict == "error"
        response = Solver(engine=STAGED_ENGINE).check("plane1", tags=tags)
        assert response.verdict == "error"

    def test_wire_round_trip(self):
        response = execute_request(
            SolveRequest(benchmark="plane1", engine=STAGED_ENGINE)
        )
        from repro.api import SolveResponse

        payload = response.to_json()
        assert payload["solver_stats"]["staged_stages_run"] == 1
        restored = SolveResponse.from_json(payload)
        assert restored.verdict == "unrealizable"
        assert restored.details["staged"]["winner"] == "nayInt"


class TestStagedSurface:
    def test_solver_facade_accepts_staged(self):
        response = Solver(engine="staged").check("mpg_guard1")
        assert response.verdict == "unrealizable"
        assert response.solver_stats["staged_exact_calls"] == 0

    def test_available_engines_lists_both_strategies(self):
        engines = Solver().available_engines()
        assert "portfolio" in engines
        assert "staged" in engines

    def test_staged_agrees_with_racing_portfolio(self):
        solver = Solver(timeout_seconds=120)
        for benchmark in ("plane1", "guard1", "mpg_guard1"):
            staged = solver.check(benchmark, engine="staged")
            raced = solver.check(benchmark, engine="portfolio")
            assert staged.verdict == raced.verdict == "unrealizable"

    def test_cli_staged_tool(self, capsys):
        exit_code = cli_main(["check", "plane1", "--tool", "staged", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert '"verdict": "unrealizable"' in captured.out
        assert '"staged_stages_run"' in captured.out

    def test_cli_lists_domains(self, capsys):
        assert cli_main(["domains"]) == 0
        listed = capsys.readouterr().out.split()
        for name in ("interval", "powerset", "numeric", "product"):
            assert name in listed
