"""Per-request work counters (:mod:`repro.utils.stats`).

Every engine-side ``solver_stats`` entry reaches a response through the
scope :func:`repro.api.facade.run_engine` records in, so runs solved at the
same time count only their own work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.api import Solver
from repro.api.facade import run_engine
from repro.engine.base import EngineConfigMixin
from repro.engine.registry import _REGISTRY, register_engine
from repro.logic.formulas import atom_ge, atom_le, conjunction
from repro.logic.solver import check_sat
from repro.logic.terms import LinearExpression
from repro.suites import get_benchmark
from repro.unreal.result import CegisResult, CheckResult, Verdict
from repro.utils.stats import count, note, recording


class TestRecorder:
    def test_count_adds_and_note_sets(self):
        with recording("a") as scope:
            count({"a": 2, "b": 1})
            count({"a": 3})
            note({"size": 7})
            note({"size": 4})
        assert scope == {"a": 5, "b": 1, "size": 4}

    def test_inner_scope_hides_outer_and_no_scope_is_a_no_op(self):
        count({"a": 1})
        with recording() as outer:
            with recording() as inner:
                count({"a": 1})
            count({"b": 1})
        assert inner == {"a": 1}
        assert outer == {"b": 1}


@dataclass
class SatCounter(EngineConfigMixin):
    """A test engine making ``calls`` solver calls between two barrier
    waits, so runs on two threads overlap for the whole of their solving."""

    calls: int = 0
    barrier: Optional[threading.Barrier] = None
    seed: Optional[int] = None
    timeout_seconds: Optional[float] = None
    max_iterations: int = 40

    @property
    def name(self) -> str:
        return "satcounter"

    def check(self, problem, examples) -> CheckResult:
        x = LinearExpression.variable("x")
        self.barrier.wait(timeout=30)
        for bound in range(self.calls):
            check_sat(conjunction([atom_ge(x, bound), atom_le(x, bound + 1)]))
        self.barrier.wait(timeout=30)
        return CheckResult(verdict=Verdict.UNKNOWN, examples=examples)

    def solve(self, problem, initial_examples=None) -> CegisResult:
        raise NotImplementedError


@pytest.fixture()
def satcounter():
    register_engine("satcounter")(SatCounter)
    yield
    _REGISTRY.pop("satcounter", None)


def test_concurrent_runs_each_report_their_own_work(satcounter):
    benchmark = get_benchmark("plane1")
    barrier = threading.Barrier(2)
    responses = {}

    def run(calls: int) -> None:
        responses[calls] = run_engine(
            "satcounter",
            "check",
            benchmark.problem,
            benchmark.witness_examples,
            knobs={"calls": calls, "barrier": barrier},
        )

    threads = [threading.Thread(target=run, args=(calls,)) for calls in (5, 40)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert {calls: r.solver_stats["sat_checks"] for calls, r in responses.items()} == {
        5: 5,
        40: 40,
    }


def test_nayfin_solve_reports_powerset_knobs_in_solver_stats():
    response = Solver(engine="nayFin").solve("plane1", kind="solve", seed=0)
    assert response.verdict == "unrealizable"
    assert {"powerset_max_examples", "powerset_cap"} <= set(response.solver_stats)
    assert "domain_stats" not in response.details["check"]
