"""Tests for the public api: wire format, facade, portfolio, batch, serve."""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import pytest

from repro.api import (
    PORTFOLIO_ENGINE,
    SCHEMA_VERSION,
    SolveRequest,
    SolveResponse,
    Solver,
    WireFormatError,
    execute_request,
    json_safe,
    solve,
)
from repro.api.facade import run_engine
from repro.api.service import make_server
from repro.cli import main as cli_main
from repro.engine.base import EngineConfigMixin
from repro.engine.registry import _REGISTRY, register_engine
from repro.engine.store import (
    STORE_ENV,
    ResultStore,
    get_result_store,
    install_result_store,
)
from repro.semantics.examples import ExampleSet
from repro.suites import get_benchmark
from repro.suites.scaling import (
    example_set,
    redundant_expression_benchmark,
    scaling_benchmark,
)
from repro.sygus import parse_sygus, print_sygus
from repro.unreal.result import CegisResult, CheckResult, Verdict
from repro.utils.errors import ExampleExhaustionError


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


class TestWireFormat:
    def test_request_round_trips(self):
        request = SolveRequest(
            benchmark="plane1",
            suite="LimitedPlus",
            engine="portfolio",
            engines=["naySL", "nayHorn"],
            timeout_seconds=30.0,
            max_iterations=10,
            max_examples=4,
            tags={"run": "ci"},
        )
        payload = request.to_json()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert SolveRequest.from_json(payload) == request
        # and through actual JSON text
        assert SolveRequest.from_json(json.loads(json.dumps(payload))) == request

    def test_response_round_trips(self):
        response = SolveResponse(
            verdict="unrealizable",
            engine="naySL",
            kind="check",
            problem="plane1",
            suite="LimitedPlus",
            elapsed_seconds=0.12,
            num_examples=1,
            witness_examples=[{"x": 1}],
            grammar={"num_nonterminals": 2, "num_productions": 3, "num_variables": 1},
            details={"gfa_seconds": 0.1},
            engines_raced=["naySL", "nayHorn"],
        )
        payload = json.loads(json.dumps(response.to_json()))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert SolveResponse.from_json(payload) == response

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(WireFormatError):
            SolveRequest.from_json({"schema_version": 99, "benchmark": "plane1"})
        with pytest.raises(WireFormatError):
            SolveResponse.from_json({"schema_version": 0, "verdict": "unknown"})

    def test_unknown_fields_rejected(self):
        with pytest.raises(WireFormatError):
            SolveRequest.from_json({"surprise": 1})
        with pytest.raises(WireFormatError):
            SolveResponse.from_json({"verdict": "unknown", "surprise": 1})

    def test_bad_enum_values_rejected(self):
        with pytest.raises(WireFormatError):
            SolveRequest(kind="frobnicate")
        with pytest.raises(WireFormatError):
            SolveResponse(verdict="maybe")

    def test_json_safe_normalizes_exotic_payloads(self):
        payload = json_safe(
            {
                1: Verdict.UNREALIZABLE,
                "tuple": (1, 2),
                "set": {3, 1},
                "object": ExampleSet.of({"x": 1}),
            }
        )
        assert payload == {
            "1": "unrealizable",
            "tuple": [1, 2],
            "set": [1, 3],
            "object": "<{x=1}>",
        }
        json.dumps(payload)


# ---------------------------------------------------------------------------
# details payloads stay serializable (satellite: solver-native model objects)
# ---------------------------------------------------------------------------


class TestDetailsSerializable:
    def test_realizable_check_model_is_plain_ints(self):
        benchmark = get_benchmark("max2", "LimitedIf")
        response = Solver(engine="naySL").check(
            benchmark, examples=ExampleSet.of({"x": 1, "y": 2})
        )
        assert response.verdict == "realizable"
        model = response.details.get("model")
        assert model, "realizable checks must expose the solver model"
        assert all(
            isinstance(key, str) and type(value) is int for key, value in model.items()
        )
        json.dumps(response.to_json())


# ---------------------------------------------------------------------------
# ExampleSet.resized (satellite: moved out of cli.py)
# ---------------------------------------------------------------------------


class TestResizedExamples:
    def test_truncates_and_tops_up(self):
        witness = ExampleSet.of({"x": 1}, {"x": 2})
        assert len(witness.resized(("x",), 1)) == 1
        grown = witness.resized(("x",), 5)
        assert len(grown) == 5
        assert list(grown)[:2] == list(witness)
        assert grown == witness.resized(("x",), 5)  # deterministic

    def test_exhaustion_is_an_error_not_a_warning(self):
        with pytest.raises(ExampleExhaustionError):
            ExampleSet().resized(("x",), 10, low=0, high=3)

    def test_api_example_count_budget_uses_resized(self):
        response = Solver(engine="naySL").solve("plane1", example_count=3)
        assert response.num_examples == 3
        assert response.verdict == "unrealizable"


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


class TestFacade:
    def test_solve_by_benchmark_name(self):
        response = solve("plane1")
        assert response.verdict == "unrealizable"
        assert response.kind == "check"  # witness examples exist -> check
        assert response.suite == "LimitedPlus"
        assert response.grammar["num_nonterminals"] > 0
        assert SolveResponse.from_json(response.to_json()) == response

    def test_solve_by_path_and_inline_text(self, tmp_path):
        problem = get_benchmark("plane1", "LimitedPlus").problem
        text = print_sygus(problem)
        path = tmp_path / "plane1.sl"
        path.write_text(text)
        by_path = solve(path, engine="naySL")
        by_text = solve(text, engine="naySL")
        assert by_path.verdict == "unrealizable"
        assert by_text.verdict == "unrealizable"
        # A ".sl" name containing "(" is a path, not SyGuS text.
        copy = tmp_path / "plane1 (copy).sl"
        copy.write_text(text)
        by_name = solve(str(copy), engine="naySL")
        assert by_name.error is None, by_name.error
        assert by_name.verdict == "unrealizable"

    @pytest.mark.parametrize(
        "name",
        ["plane1 (copy).sl", os.path.join("copy (1)", "plane1.sl")],
        ids=["file", "directory"],
    )
    def test_relative_sl_name_with_a_parenthesis_is_a_path(
        self, name, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(print_sygus(get_benchmark("plane1", "LimitedPlus").problem))
        assert Solver().request(name).path == name
        response = solve(name, engine="naySL")
        assert response.error is None, response.error
        assert response.verdict == "unrealizable"

    def test_solve_problem_object_serializes_through_printer(self):
        problem = get_benchmark("guard1", "LimitedPlus").problem
        response = Solver(engine="naySL").solve(problem)
        assert response.verdict == "unrealizable"

    def test_unregistered_benchmark_checks_its_own_problem(self):
        benchmark = scaling_benchmark(4)  # chain_4 is not a suite member
        response = Solver("nayHorn").check(benchmark, example_set(2))
        expected = run_engine("nayHorn", "check", benchmark.problem, example_set(2))
        assert response.error is None, response.error
        assert response.verdict == expected.verdict == "unrealizable"

    def test_unregistered_benchmark_solves_on_its_witness_examples(self):
        benchmark = redundant_expression_benchmark(2)
        response = Solver("naySL").solve(benchmark)
        expected = run_engine(
            "naySL", "check", benchmark.problem, benchmark.witness_examples
        )
        assert response.error is None, response.error
        assert response.kind == "check"
        assert response.num_examples == len(benchmark.witness_examples)
        assert response.verdict == expected.verdict

    def test_benchmark_goes_by_name_only_when_registered(self):
        registered = get_benchmark("plane1", "LimitedPlus")
        request = Solver().request(registered)
        assert (request.benchmark, request.suite, request.sl) == (
            "plane1",
            "LimitedPlus",
            None,
        )
        # A look-alike that reuses the name is solved on its own problem.
        impostor = replace(
            registered, problem=redundant_expression_benchmark(2).problem
        )
        request = Solver().request(impostor)
        assert request.benchmark is None
        assert request.sl == print_sygus(impostor.problem)
        assert request.examples == list(registered.witness_examples.as_dicts())
        assert Solver("naySL").solve(registered).verdict == "unrealizable"
        assert Solver("naySL").solve(impostor).verdict == "realizable"

    def test_witness_certificate_is_machine_checkable(self):
        solver = Solver(engine="nayHorn")
        response = solver.solve("mpg_guard1")
        assert response.verdict == "unrealizable"
        # Re-running the exact engine on exactly the response's witness
        # examples must agree (Lem. 3.5); Solver.verify packages that.
        assert solver.verify(response)
        recheck = Solver(engine="naySL").check(
            "mpg_guard1", examples=response.witness_examples
        )
        assert recheck.verdict == "unrealizable"

    def test_error_response_for_unknown_benchmark(self):
        response = solve("no_such_benchmark_anywhere")
        assert response.verdict == "error"
        assert "unknown benchmark" in (response.error or "")
        # still wire-clean
        assert SolveResponse.from_json(response.to_json()) == response

    def test_max_examples_budget_caps_check(self):
        full = solve("mpg_guard1", engine="naySL")
        capped = solve("mpg_guard1", engine="naySL", max_examples=1)
        assert full.num_examples > 1
        assert capped.num_examples == 1

    def test_solve_batch_parallel_matches_serial(self, tmp_path):
        for name in ("plane1", "guard1"):
            benchmark = get_benchmark(name, "LimitedPlus")
            (tmp_path / f"{name}.sl").write_text(print_sygus(benchmark.problem))
        paths = sorted(tmp_path.glob("*.sl"))
        solver = Solver(engine="naySL", timeout_seconds=60.0)
        serial = solver.solve_batch(paths, workers=1, kind="solve")
        parallel = solver.solve_batch(paths, workers=2, kind="solve")
        assert [r.verdict for r in serial] == ["unrealizable", "unrealizable"]
        assert [r.verdict for r in parallel] == [r.verdict for r in serial]
        assert [r.problem for r in parallel] == [r.problem for r in serial]


# ---------------------------------------------------------------------------
# Portfolio
# ---------------------------------------------------------------------------

#: How long the deliberately slow engine sleeps; the portfolio must return a
#: definitive verdict well before this.
SLOWPOKE_SECONDS = 8.0


@dataclass
class Slowpoke(EngineConfigMixin):
    """A test engine that is always slow and never definitive."""

    seed: Optional[int] = None
    timeout_seconds: Optional[float] = None
    max_iterations: int = 40
    sleep_seconds: float = SLOWPOKE_SECONDS

    @property
    def name(self) -> str:
        return "slowpoke"

    def check(self, problem, examples) -> CheckResult:
        time.sleep(self.sleep_seconds)
        return CheckResult(
            verdict=Verdict.UNKNOWN,
            examples=examples,
            elapsed_seconds=self.sleep_seconds,
        )

    def solve(self, problem, initial_examples=None) -> CegisResult:
        time.sleep(self.sleep_seconds)
        return CegisResult(verdict=Verdict.UNKNOWN, examples=ExampleSet())


@pytest.fixture(scope="module", autouse=True)
def _slowpoke_registered_for_module():
    register_engine("slowpoke")(Slowpoke)
    yield
    _REGISTRY.pop("slowpoke", None)


class TestPortfolio:
    def test_first_definitive_verdict_wins_and_beats_slowest(self):
        """Acceptance: the race is faster than the slowest single engine."""
        solver = Solver(
            engine=PORTFOLIO_ENGINE,
            engines=["slowpoke", "naySL", "nayHorn"],
            timeout_seconds=60.0,
        )
        start = time.monotonic()
        response = solver.solve("plane1")
        race_elapsed = time.monotonic() - start
        assert response.verdict == "unrealizable"
        assert response.is_definitive
        assert response.engine in ("naySL", "nayHorn")
        assert response.engines_raced == ["slowpoke", "naySL", "nayHorn"]
        # The slowest single engine sleeps for SLOWPOKE_SECONDS; the race
        # must come back definitively before that engine even finishes.
        assert race_elapsed < SLOWPOKE_SECONDS
        # The slow loser was cancelled, not awaited.
        portfolio = response.details["portfolio"]
        assert "slowpoke" in portfolio["cancelled"]

    def test_portfolio_on_real_engines_is_definitive(self):
        response = solve("mpg_guard1", engine=PORTFOLIO_ENGINE, engines=["naySL", "nayHorn", "nope"])
        assert response.verdict == "unrealizable"
        assert response.details["portfolio"]["winner"] == response.engine

    def test_portfolio_without_definitive_verdict_reports_best_loser(self):
        # array_search_2 is beyond the approximate engines: they answer
        # "unknown", and with no exact engine in the pool the portfolio must
        # report unknown rather than invent a verdict.
        response = solve(
            "array_search_2", engine=PORTFOLIO_ENGINE, engines=["nayHorn", "nope"]
        )
        assert response.verdict == "unknown"
        assert response.engines_raced == ["nayHorn", "nope"]

    def test_single_engine_portfolio_degenerates_gracefully(self):
        response = solve("plane1", engine=PORTFOLIO_ENGINE, engines=["naySL"])
        assert response.verdict == "unrealizable"
        assert response.engines_raced == ["naySL"]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


#: The shipped directory of .sl files (the `repro-nay batch examples/` target).
EXAMPLES_DIR = str(Path(__file__).resolve().parent.parent / "examples")


@pytest.fixture()
def no_ambient_store(monkeypatch):
    """No installed store and no ``REPRO_NAY_STORE``; the ambient one is
    put back afterwards."""
    monkeypatch.delenv(STORE_ENV, raising=False)
    saved = install_result_store(None)
    yield
    install_result_store(saved)


class TestCliJson:
    def test_batch_examples_dir_emits_wire_format(self, capsys):
        """Acceptance: repro-nay batch examples/ --json round-trips."""
        assert cli_main(["batch", EXAMPLES_DIR, "--json", "--tool", "naySL"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) >= 3
        for entry in payload:
            response = SolveResponse.from_json(entry)
            assert response.schema_version == SCHEMA_VERSION
            assert response.verdict == "unrealizable"

    def test_batch_parallel_workers(self, capsys):
        assert cli_main(["batch", EXAMPLES_DIR, "--json", "--workers", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["verdict"] for entry in payload] == ["unrealizable"] * len(payload)

    def test_batch_store_replays_every_definitive_verdict(self, tmp_path, capsys):
        """A warm ``batch --store`` run answers every definitive cold
        verdict from the store, and ``main`` uninstalls and closes the
        store it opened."""
        store = tmp_path / "batch.sqlite"
        argv = ["batch", EXAMPLES_DIR, "--json", "--store", str(store)]
        ambient = get_result_store()
        assert cli_main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert get_result_store() is ambient
        assert not os.path.exists(f"{store}-wal")
        assert cli_main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert len(warm) == len(cold) >= 3
        replayed = 0
        for before, after in zip(cold, warm):
            if before["verdict"] not in ("unrealizable", "realizable"):
                continue
            assert after["solver_stats"].get("store_hits") == 1, after
            assert after["verdict"] == before["verdict"]
            replayed += 1
        assert replayed

    def test_store_option_is_uninstalled_after_the_command(
        self, no_ambient_store, tmp_path, capsys
    ):
        # An in-process solve after ``main`` returns no longer reads or
        # writes the file ``--store`` named.
        store = tmp_path / "cli.sqlite"
        assert cli_main(["check", "plane1", "--json", "--store", str(store)]) == 0
        capsys.readouterr()
        assert get_result_store() is None
        assert not os.path.exists(f"{store}-wal")
        stats = Solver().check("plane1").solver_stats
        assert not [key for key in stats if key.startswith("store_")], stats
        assert ResultStore(store).snapshot()["entries"] == 1

    def test_store_option_is_uninstalled_when_the_command_raises(
        self, no_ambient_store, tmp_path, monkeypatch
    ):
        store = tmp_path / "cli.sqlite"

        def explode(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(Solver, "solve", explode)
        with pytest.raises(RuntimeError, match="solver exploded"):
            cli_main(["check", "plane1", "--store", str(store)])
        assert get_result_store() is None
        assert not os.path.exists(f"{store}-wal")

    def test_store_option_restores_an_installed_store(
        self, no_ambient_store, tmp_path, capsys
    ):
        embedded = ResultStore(tmp_path / "embedded.sqlite")
        install_result_store(embedded)
        try:
            store = tmp_path / "cli.sqlite"
            assert cli_main(["check", "plane1", "--json", "--store", str(store)]) == 0
            capsys.readouterr()
            assert get_result_store() is embedded
            # The embedder's store is still open and records the next solve.
            stats = Solver().check("plane1").solver_stats
            assert stats.get("store_stores") == 1, stats
            assert embedded.snapshot()["entries"] == 1
            assert ResultStore(store).snapshot()["entries"] == 1
        finally:
            embedded.close()

    @pytest.mark.parametrize("op", ["compile", "count"])
    def test_grammar_op_reads_an_sl_path_with_a_parenthesis(
        self, op, tmp_path, capsys
    ):
        text = print_sygus(get_benchmark("plane1", "LimitedPlus").problem)
        outputs = []
        for name in ("plane1.sl", "plane1 (copy).sl"):
            (tmp_path / name).write_text(text)
            assert cli_main(["grammar", op, str(tmp_path / name), "--json"]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_solve_json(self, tmp_path, capsys):
        benchmark = get_benchmark("plane1", "LimitedPlus")
        path = tmp_path / "plane1.sl"
        path.write_text(print_sygus(benchmark.problem))
        assert cli_main(["solve", str(path), "--json"]) == 0
        response = SolveResponse.from_json_text(capsys.readouterr().out)
        assert response.verdict == "unrealizable"
        assert response.kind == "solve"

    def test_check_json(self, capsys):
        assert cli_main(["check", "plane1", "--json"]) == 0
        response = SolveResponse.from_json_text(capsys.readouterr().out)
        assert response.verdict == "unrealizable"
        assert response.witness_examples

    def test_check_resized_exhaustion_fails_loudly(self, capsys):
        # plane1 has one variable; asking for more distinct examples than the
        # sampling range can hold must be a hard error, not a warning.
        assert cli_main(["check", "plane1", "--examples", "102"]) == 1
        assert "distinct examples" in capsys.readouterr().err

    def test_engines_lists_portfolio(self, capsys):
        assert cli_main(["engines"]) == 0
        assert PORTFOLIO_ENGINE in capsys.readouterr().out


# ---------------------------------------------------------------------------
# HTTP service
# ---------------------------------------------------------------------------


@pytest.fixture()
def api_server():
    server = make_server(port=0, solver=Solver(timeout_seconds=60.0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as reply:
        return reply.status, json.load(reply)


def _post(url: str, payload) -> tuple:
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=120) as reply:
        return reply.status, json.load(reply)


class TestService:
    def test_healthz_and_engines(self, api_server):
        status, health = _get(api_server + "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["schema_version"] == SCHEMA_VERSION
        status, engines = _get(api_server + "/engines")
        assert status == 200
        assert "naySL" in engines["engines"]
        assert PORTFOLIO_ENGINE in engines["engines"]

    def test_post_solve_round_trips(self, api_server):
        """Acceptance: POST /solve returns wire JSON that from_json accepts."""
        status, payload = _post(
            api_server + "/solve", {"benchmark": "plane1", "engine": "naySL"}
        )
        assert status == 200
        response = SolveResponse.from_json(payload)
        assert response.schema_version == SCHEMA_VERSION
        assert response.verdict == "unrealizable"
        assert response.witness_examples

    def test_post_solve_rejects_malformed(self, api_server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            _post(api_server + "/solve", {"surprise": 1})
        assert caught.value.code == 400
        assert "surprise" in json.load(caught.value)["error"]

    def test_unknown_route_404(self, api_server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            _get(api_server + "/nope")
        assert caught.value.code == 404
