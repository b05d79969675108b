"""The resilient solve fabric (:mod:`repro.engine.supervisor`).

Every test here drives real worker processes, so the suite keeps pools
small (``warm=False``) and timeouts tight.  The global breaker board is
reset around each test — breakers are process-wide state and a tripped one
would leak into unrelated tests.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import pytest

from repro.api.wire import SolveRequest, SolveResponse
from repro.engine.supervisor import (
    BreakerBoard,
    CircuitBreaker,
    FabricCancelledError,
    FabricTimeoutError,
    RetryPolicy,
    Supervisor,
    get_breakers,
    get_fabric,
    install_fabric,
    shutdown_fabric,
)
from repro.testing.faults import reset_fault_state


@pytest.fixture(autouse=True)
def _isolate_global_state(monkeypatch):
    monkeypatch.delenv("REPRO_NAY_FAULTS", raising=False)
    get_breakers().reset()
    reset_fault_state()
    yield
    get_breakers().reset()
    reset_fault_state()


def request(faults=None, timeout=15.0, engine="naySL"):
    return SolveRequest(
        benchmark="plane1",
        engine=engine,
        kind="check",
        timeout_seconds=timeout,
        tags={"faults": faults} if faults else {},
    )


def assert_dead(pids):
    """Every pid must be gone (kill -0 fails) — no zombies, no leaks."""
    deadline = time.monotonic() + 10.0
    remaining = set(pids)
    while remaining and time.monotonic() < deadline:
        for pid in list(remaining):
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                remaining.discard(pid)
        if remaining:
            time.sleep(0.05)
    assert not remaining, f"worker pids still alive after shutdown: {remaining}"


def well_formed(response):
    SolveResponse.from_json(response.to_json())
    return response


class TestRetryPolicy:
    def test_delays_are_bounded_and_grow(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay_seconds=0.1, max_delay_seconds=0.3
        )
        import random

        rng = random.Random(0)
        delays = [policy.delay(attempt, rng) for attempt in (1, 2, 3)]
        assert all(0.0 < delay <= 0.45 for delay in delays)  # cap + 50% jitter

    def test_defaults_retry_a_few_times(self):
        assert RetryPolicy().max_attempts >= 2


class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers_half_open(self):
        breaker = CircuitBreaker("x", threshold=2, cooldown_seconds=0.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == "open"
        assert snap["trips"] == 1
        assert not breaker.allow()  # cooling down
        time.sleep(0.15)
        assert breaker.allow()  # the half-open probe
        assert breaker.snapshot()["state"] == "half_open"
        assert not breaker.allow()  # a single probe at a time
        breaker.record_success()
        assert breaker.snapshot()["state"] == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker("x", threshold=1, cooldown_seconds=0.05)
        breaker.record_failure()
        time.sleep(0.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.snapshot()["state"] == "open"

    def test_release_probe_reopens_without_waiting(self):
        breaker = CircuitBreaker("x", threshold=1, cooldown_seconds=60.0)
        breaker.record_failure()
        breaker._opened_at -= 60.0  # age past the cooldown
        assert breaker.allow()
        breaker.release_probe()  # probe cancelled, not failed
        assert breaker.allow()  # immediately probeable again


class TestSupervisorLifecycle:
    def test_solve_and_shutdown_leaves_no_processes(self):
        with Supervisor(2, warm=False, name="t-life") as fabric:
            pids = fabric.worker_pids()
            assert len(pids) == 2
            response = well_formed(fabric.solve(request()))
            assert response.verdict == "unrealizable"
        assert_dead(pids)

    def test_map_preserves_order(self):
        with Supervisor(2, warm=False, name="t-map") as fabric:
            responses = fabric.map([request(), request(engine="nayHorn")])
        assert [r.engine for r in responses] == ["naySL", "nayHorn"]
        assert all(r.verdict == "unrealizable" for r in responses)

    def test_cancelled_job_leaves_no_zombies(self):
        fabric = Supervisor(1, warm=False, name="t-zombie")
        job = fabric.submit(request("hang@*"), soft_timeout=5.0)
        doomed = job.worker.pid
        fabric.cancel(job)  # kills the hung worker, spawns a replacement
        replacement = fabric.worker_pids()
        assert replacement and doomed not in replacement
        fabric.shutdown()
        assert_dead([doomed, *replacement])


class TestCrashRecovery:
    def test_crash_is_retried_then_reported_as_error(self):
        board = BreakerBoard(threshold=100)
        fabric = Supervisor(
            1,
            warm=False,
            breakers=board,
            retry=RetryPolicy(max_attempts=2, base_delay_seconds=0.01),
            name="t-crash",
        )
        try:
            response = well_formed(fabric.solve(request("crash@*")))
            assert response.verdict == "error"
            assert "worker" in (response.error or "").lower()
            assert response.solver_stats["retries"] == 1
            assert response.solver_stats["workers_replaced"] >= 2
            # Both attempts crashed, yet the breaker counts one failure.
            assert board.for_engine("naySL").snapshot()["consecutive_failures"] == 1
            # The pool healed: a clean request succeeds on the replacement.
            assert fabric.solve(request()).verdict == "unrealizable"
        finally:
            fabric.shutdown()

    def test_request_after_a_crash_runs_on_a_ready_worker(self):
        """The crashed worker's replacement is still starting up, so the
        next request is checked out on a worker from before the crash."""
        fabric = Supervisor(
            3,
            warm=True,
            breakers=BreakerBoard(threshold=100),
            retry=RetryPolicy(max_attempts=1),
            name="t-ready",
        )
        try:
            # Three checkouts at once consume every worker's handshake.
            jobs = [fabric.submit(request()) for _ in range(3)]
            verdicts = [fabric.harvest(job).verdict for job in jobs]
            assert verdicts == ["unrealizable"] * 3
            before = set(fabric.worker_pids())
            assert fabric.solve(request("crash@*")).verdict == "error"
            job = fabric.submit(request())
            assert job.worker.pid in before
            assert fabric.harvest(job).verdict == "unrealizable"
        finally:
            fabric.shutdown()

    def test_corrupt_reply_is_a_transient_failure(self):
        board = BreakerBoard(threshold=100)
        fabric = Supervisor(
            1,
            warm=False,
            breakers=board,
            retry=RetryPolicy(max_attempts=2, base_delay_seconds=0.01),
            name="t-corrupt",
        )
        try:
            response = well_formed(fabric.solve(request("corrupt@*")))
            assert response.verdict == "error"
            assert response.solver_stats["retries"] == 1
            assert fabric.stats.snapshot()["corrupt_replies"] >= 1
        finally:
            fabric.shutdown()

    def test_deterministic_error_fault_is_never_retried(self):
        fabric = Supervisor(1, warm=False, name="t-det")
        try:
            for faults, error in (
                ("error@*", "injected error"),
                ("oom@*:16", "MemoryError: injected oom for engine 'naySL' (16 MiB)"),
            ):
                response = well_formed(fabric.solve(request(faults)))
                assert response.verdict == "error"
                assert error in (response.error or "")
                assert "retries" not in response.solver_stats
        finally:
            fabric.shutdown()

    def test_slow_fault_answers_normally_and_is_reported(self):
        fabric = Supervisor(1, warm=False, name="t-slow")
        try:
            response = well_formed(fabric.solve(request("slow@*:0.1")))
            assert response.verdict == "unrealizable"
            assert response.solver_stats["faults_injected"] == 1
            assert "retries" not in response.solver_stats
            assert fabric.stats.snapshot().get("workers_replaced", 0) == 0
        finally:
            fabric.shutdown()

    def test_kill9_mid_solve_retries_to_success(self):
        """Acceptance: kill -9 of a busy worker mid-request self-heals."""
        fabric = Supervisor(
            2,
            warm=False,
            breakers=BreakerBoard(threshold=100),
            retry=RetryPolicy(max_attempts=3, base_delay_seconds=0.01),
            name="t-kill9",
        )
        holder = {}
        try:
            thread = threading.Thread(
                target=lambda: holder.update(
                    response=fabric.solve(request("slow@*:1.0"))
                )
            )
            thread.start()
            killed = None
            deadline = time.monotonic() + 5.0
            while killed is None and time.monotonic() < deadline:
                busy = fabric.busy_pids()
                if busy:
                    killed = busy[0]
                    os.kill(killed, signal.SIGKILL)
                else:
                    time.sleep(0.02)
            assert killed is not None, "worker never became busy"
            thread.join(timeout=60.0)
            response = well_formed(holder["response"])
            assert response.verdict == "unrealizable"
            assert response.solver_stats["retries"] >= 1
            assert response.solver_stats["workers_replaced"] >= 1
        finally:
            fabric.shutdown()


class TestCancellation:
    def test_cancelled_solve_kills_its_worker_and_hands_the_probe_back(self):
        board = BreakerBoard(threshold=1, cooldown_seconds=0.0)
        board.for_engine("naySL").record_failure()  # open; next allow() probes
        fabric = Supervisor(1, warm=False, breakers=board, name="t-cancel")
        cancel = threading.Event()
        holder = {}

        def leg():
            try:
                fabric.solve(request("slow@*:5.0"), cancel)
            except FabricCancelledError as error:
                holder["error"] = error

        try:
            doomed = fabric.worker_pids()
            thread = threading.Thread(target=leg)
            thread.start()
            deadline = time.monotonic() + 5.0
            while not fabric.busy_pids() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert fabric.busy_pids() == doomed
            cancel.set()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert "error" in holder
            assert_dead(doomed)
            assert len(fabric.worker_pids()) == 1  # replaced
            assert fabric.stats.snapshot()["jobs_cancelled"] == 1
            # The half-open probe went back unspent: the next request probes.
            assert board.for_engine("naySL").snapshot()["state"] == "open"
            assert fabric.solve(request()).verdict == "unrealizable"
            assert board.for_engine("naySL").snapshot()["state"] == "closed"
        finally:
            fabric.shutdown()


class TestTimeouts:
    def test_hung_worker_hits_the_harvest_deadline(self):
        fabric = Supervisor(1, warm=False, name="t-hang")
        try:
            job = fabric.submit(request("hang@*"), soft_timeout=5.0)
            with pytest.raises(FabricTimeoutError):
                fabric.harvest(job, timeout=1.0)
            fabric.cancel(job)
            stats = fabric.stats.snapshot()
            assert stats["jobs_cancelled"] == 1
            assert stats["workers_replaced"] == 1
            # The replacement worker serves clean requests.
            assert fabric.solve(request()).verdict == "unrealizable"
        finally:
            fabric.shutdown()


class TestBreakersOnTheFabric:
    def test_trip_refuse_and_half_open_recovery(self):
        board = BreakerBoard(threshold=2, cooldown_seconds=0.2)
        fabric = Supervisor(
            1,
            warm=False,
            breakers=board,
            retry=RetryPolicy(max_attempts=1),
            name="t-breaker",
        )
        try:
            for _ in range(2):
                assert fabric.solve(request("crash@*")).verdict == "error"
            assert board.for_engine("naySL").snapshot()["state"] == "open"
            assert fabric.stats.snapshot()["workers_replaced"] == 2
            refused = well_formed(fabric.solve(request()))
            assert refused.verdict == "error"
            assert "circuit breaker open" in (refused.error or "")
            assert refused.details["breaker"]["state"] == "open"
            time.sleep(0.25)
            # A probe that ends in an ``error`` reply (here a mistyped
            # benchmark) hands the probe back instead of wedging the
            # breaker half-open for the life of the process.
            mistyped = SolveRequest(
                benchmark="no_such_benchmark", engine="naySL", kind="check"
            )
            assert fabric.solve(mistyped).verdict == "error"
            assert board.for_engine("naySL").snapshot()["state"] == "open"
            probe = fabric.solve(request())  # the next half-open probe
            assert probe.verdict == "unrealizable"
            assert board.for_engine("naySL").snapshot()["state"] == "closed"
            assert board.trips_total() == 1
        finally:
            fabric.shutdown()

    def test_in_budget_timeout_replies_never_trip_a_breaker(self):
        """nayHorn's CEGIS gives up on these in milliseconds with a
        ``timeout`` verdict.  Those replies come from live workers, so the
        fabric's answers must equal the in-process ones, with nayHorn's
        breaker still closed."""
        from repro.api import Solver
        from repro.suites import get_benchmark

        problems = [
            get_benchmark(name, suite)
            for name, suite in (
                ("guard1", "LimitedIf"),
                ("guard2", "LimitedIf"),
                ("guard3", "LimitedIf"),
                ("guard4", "LimitedIf"),
                ("max2", "LimitedIf"),
                ("sum_2_5", "LimitedIf"),
                ("plane1", "LimitedPlus"),
            )
        ]
        solver = Solver("nayHorn", timeout_seconds=30)
        serial = solver.solve_batch(problems, workers=1, kind="solve")
        parallel = solver.solve_batch(problems, workers=2, kind="solve")
        assert [r.verdict for r in serial] == ["timeout"] * 6 + ["unrealizable"]
        assert [r.verdict for r in parallel] == [r.verdict for r in serial]
        assert get_breakers().for_engine("nayHorn").snapshot()["state"] == "closed"

    def test_race_legs_that_time_out_in_budget_stay_admitted(self):
        """The portfolio's reply rule matches the fabric's: nayHorn legs
        that answer ``timeout`` in three races leave it racing the fourth."""
        from repro.api import Solver
        from repro.suites import get_benchmark

        solver = Solver("portfolio", engines=["nayHorn", "naySL"], timeout_seconds=30)
        for name in ("guard1", "guard2", "guard3"):
            race = solver.solve(get_benchmark(name, "LimitedIf"), kind="solve")
            assert race.verdict == "unrealizable"
            assert "nayHorn" in race.details["portfolio"]["finished"]
        race = solver.solve(get_benchmark("plane1", "LimitedPlus"), kind="solve")
        assert race.verdict == "unrealizable"
        assert "skipped" not in race.details["portfolio"]
        assert get_breakers().for_engine("nayHorn").snapshot()["state"] == "closed"


def kill_the_running_leg(fabric):
    """Once one race leg has answered, SIGKILL the worker still solving."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        busy = fabric.busy_pids()
        if fabric.stats.snapshot().get("jobs_completed") and len(busy) == 1:
            os.kill(busy[0], signal.SIGKILL)
            return busy[0]
        time.sleep(0.02)
    raise AssertionError("no race leg ever ran alone")


def race_in_thread(solver, holder):
    """Race LimitedIf/max2: nayInt answers ``unknown`` at once, naySL
    sleeps a second and then proves it unrealizable."""
    from repro.suites import get_benchmark

    thread = threading.Thread(
        target=lambda: holder.update(
            race=solver.solve(
                get_benchmark("max2", "LimitedIf"), tags={"faults": "slow@naySL:1.0"}
            )
        )
    )
    thread.start()
    return thread


class TestPortfolioOnTheFabric:
    def test_race_leg_killed_mid_solve_is_retried(self):
        """A race leg gets the fabric's retry: kill -9 of its worker
        mid-solve is no crash of the race, and no failure of the engine."""
        from repro.api import Solver

        fabric = Supervisor(2, warm=False, name="t-race-kill9")
        install_fabric(fabric)
        holder = {}
        try:
            solver = Solver("portfolio", engines=["nayInt", "naySL"], timeout_seconds=30)
            thread = race_in_thread(solver, holder)
            kill_the_running_leg(fabric)
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            race = well_formed(holder["race"])
            assert race.verdict == "unrealizable"
            assert race.engine == "naySL"
            assert race.solver_stats["retries"] >= 1
            assert "crashed" not in race.details["portfolio"]
            breaker = get_breakers().for_engine("naySL").snapshot()
            assert breaker["state"] == "closed"
            assert breaker["consecutive_failures"] == 0
        finally:
            shutdown_fabric()

    def test_breakers_decide_which_legs_run(self):
        """A leg its open breaker refuses is skipped; a leg that runs as a
        half-open probe and loses hands the probe back; with every breaker
        open the race answers an error naming them."""
        from repro.api import Solver

        board = get_breakers()
        for name in ("nope", "nayHorn"):
            for _ in range(board.threshold):
                board.for_engine(name).record_failure()
        board.for_engine("nayHorn")._opened_at -= board.cooldown_seconds  # probe due

        solver = Solver(
            "portfolio", engines=["naySL", "nayHorn", "nope"], timeout_seconds=30
        )
        race = solver.solve("plane1", tags={"faults": "slow@nayHorn:5.0"})
        assert race.engine == "naySL"
        assert race.details["portfolio"]["skipped"] == ["nope"]
        assert race.details["portfolio"]["cancelled"] == ["nayHorn", "nope"]
        assert board.for_engine("nayHorn").snapshot()["state"] == "open"
        assert board.allow("nayHorn")  # the unspent probe is due again

        for _ in range(board.threshold):
            board.for_engine("naySL").record_failure()
        refused = well_formed(solver.solve("plane1"))
        assert refused.verdict == "error"
        assert refused.error.startswith(
            "portfolio: every selected engine's circuit breaker is open "
            "(nayHorn, naySL, nope)"
        )
        assert refused.details["portfolio"] == {
            "winner": None,
            "race_seconds": 0.0,
            "finished": [],
            "cancelled": ["nayHorn", "naySL", "nope"],
            "skipped": ["nayHorn", "naySL", "nope"],
        }

    def test_workers_after_a_race(self, monkeypatch):
        """On an ambient fabric a race's losers are replaced, so the pool
        keeps its size; an ephemeral race leaves no worker alive, not even
        the replacement it spawned mid-race for a retried leg."""
        from repro.api import Solver

        solver = Solver("portfolio", engines=["naySL", "nayHorn"], timeout_seconds=30)
        slow_loser = {"faults": "slow@nayHorn:5.0"}

        fabric = Supervisor(2, warm=False, name="t-race-ambient")
        install_fabric(fabric)
        try:
            before = fabric.worker_pids()
            race = solver.solve("plane1", tags=slow_loser)
            assert race.engine == "naySL"
            assert race.details["portfolio"]["cancelled"] == ["nayHorn"]
            after = fabric.worker_pids()
            assert len(after) == fabric.size
            losers = set(before) - set(after)
            assert len(losers) == 1  # nayHorn's worker, killed and replaced
            assert_dead(losers)
            assert fabric.stats.snapshot()["workers_replaced"] == 1
        finally:
            shutdown_fabric()

        pools, spawned = [], []
        spawn = Supervisor._spawn

        def recording_spawn(supervisor):
            worker = spawn(supervisor)
            pools.append(supervisor)
            spawned.append(worker.pid)
            return worker

        monkeypatch.setattr(Supervisor, "_spawn", recording_spawn)
        # More legs than cores, and threads that switch often: the pool is
        # shut down under running legs, and none of its workers outlives it.
        legs = ["naySL", "nayHorn", "nope", "nayInt"]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                race = solver.solve("plane1", engines=legs, tags=slow_loser)
                assert race.verdict == "unrealizable"
                assert "nayHorn" in race.details["portfolio"]["cancelled"]
        finally:
            sys.setswitchinterval(switch_interval)
        assert len(spawned) == 3 * len(legs)  # one per leg; no loser replaced
        assert_dead(spawned)

        del pools[:], spawned[:]
        holder = {}
        solver = Solver("portfolio", engines=["nayInt", "naySL"], timeout_seconds=30)
        thread = race_in_thread(solver, holder)
        deadline = time.monotonic() + 5.0
        while not pools and time.monotonic() < deadline:
            time.sleep(0.01)
        kill_the_running_leg(pools[0])
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert holder["race"].verdict == "unrealizable"
        assert len(spawned) == 3  # two legs, and naySL's replacement
        assert_dead(spawned)


class TestRunnerOnTheFabric:
    def test_crashing_cells_become_error_rows_in_task_order(self, monkeypatch):
        """The experiment runner's ``--workers N`` runs on the fabric: a
        cell whose worker crashes on every attempt is an ``error`` row, and
        every other row matches the in-process run, in task order."""
        from repro.engine.results import stable_view
        from repro.engine.runner import ExperimentRunner, Task
        from repro.experiments import ENGINE_ORDER

        tasks = [
            Task(
                kind="check",
                engine=engine,
                benchmark=name,
                suite="LimitedPlus",
                timeout=60.0,
            )
            for name in ("plane1", "plane2")
            for engine in ENGINE_ORDER
        ] + [Task(kind="gfa", scaling_size=3, example_count=1)]
        monkeypatch.setenv("REPRO_NAY_FAULTS", "crash@nope")
        serial = ExperimentRunner(workers=1).run(tasks)
        parallel = ExperimentRunner(workers=2).run(tasks)
        assert [row.get("tool") for row in parallel] == list(ENGINE_ORDER) * 2 + [None]
        assert [row["benchmark"] for row in parallel[:-1]] == (
            ["plane1"] * len(ENGINE_ORDER) + ["plane2"] * len(ENGINE_ORDER)
        )
        for row in parallel[:-1]:
            assert (row["verdict"] == "error") == (row["tool"] == "nope"), row
        assert parallel[-1]["semilinear_size"] >= 1
        assert [stable_view(row) for row in parallel] == [
            stable_view(row) for row in serial
        ]


    def test_one_crashing_cell_leaves_its_engine_admitted(self, monkeypatch):
        """A cell that crashes on every attempt counts once against its
        engine's breaker, so the engine's later cells still run and match
        the in-process rows; the crashed check row keeps its example count."""
        from dataclasses import replace

        from repro.engine import runner
        from repro.engine.results import stable_view
        from repro.suites import get_benchmark

        build = runner._request

        def with_task_faults(solver, task, benchmark):
            request = build(solver, task, benchmark)
            if "faults" not in task.tags:
                return request
            return replace(request, tags={"faults": task.tags["faults"]})

        monkeypatch.setattr(runner, "_request", with_task_faults)

        def cell(engine, name, faults=None):
            return runner.Task(
                kind="check",
                engine=engine,
                benchmark=name,
                suite="LimitedPlus",
                timeout=60.0,
                tags={"faults": faults} if faults else {},
            )

        # The slowed naySL cell holds the second worker while the first
        # retries the crashing cell, so no nope reply lands in between.
        tasks = [
            cell("nope", "plane1", "crash@nope"),
            cell("naySL", "plane1", "slow@naySL:1.0"),
        ] + [cell("nope", name) for name in ("plane1", "plane2", "plane3")]
        serial = runner.ExperimentRunner(workers=1).run(tasks)
        parallel = runner.ExperimentRunner(workers=2).run(tasks)
        assert [row["verdict"] for row in parallel] == ["error"] + ["unrealizable"] * 4
        assert [stable_view(row) for row in parallel] == [
            stable_view(row) for row in serial
        ]
        witness = get_benchmark("plane1", "LimitedPlus").witness_examples
        assert parallel[0]["examples"] == len(witness) > 0
        assert get_breakers().for_engine("nope").snapshot()["trips"] == 0


class TestAmbientFabric:
    def test_install_get_shutdown(self):
        assert get_fabric() is None
        fabric = Supervisor(1, warm=False, name="t-ambient")
        pids = fabric.worker_pids()
        install_fabric(fabric)
        try:
            assert get_fabric() is fabric
        finally:
            shutdown_fabric()
        assert get_fabric() is None
        assert_dead(pids)

