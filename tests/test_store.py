"""The persistent result store (:mod:`repro.engine.store`).

Five layers of battery, mirroring the store's consumers:

* **unit** — put/get/evict/quarantine semantics of one ``ResultStore``,
  and its one connection per process, shared by every thread;
* **fingerprint** — the semantic-tag allowlist: a fault-tagged request and
  its clean twin hash identically, while the store still refuses
  fault-injected payloads;
* **integration** — the ``Solver`` door (``solve``/``check`` as
  one-element batches, ``solve_batch``) plus a differential sweep
  asserting store-served responses are byte-identical to the fresh solves
  that populated them, certificates re-verified by the independent
  checker;
* **one tier** — only the doors touch the store: fabric workers (pre-warm
  included) write nothing (the served answer's one row is asserted with
  the other serve tests in ``tests/test_service_robustness.py``);
* **cross-process** — a 2-worker batch against one store file pays for
  each fingerprint exactly once (counter-based witness), and store objects
  survive ``fork`` and ``spawn`` boundaries.

Every test isolates the ambient store and the ``REPRO_NAY_STORE`` /
``REPRO_NAY_FAULTS`` environment so nothing leaks between tests.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import sqlite3
import sys
import threading

import pytest

from repro.analysis import check_certificate
from repro.api.facade import Solver
from repro.api.wire import SCHEMA_VERSION, SolveRequest
from repro.engine import engine_names
from repro.engine.results import SEMANTIC_TAGS, request_fingerprint
from repro.engine.store import (
    STORE_ENV,
    STORE_MAX_BYTES_ENV,
    STORE_STAT_KEYS,
    ResultStore,
    get_result_store,
    install_result_store,
    lookup,
    pristine_response,
    request_key,
    response_cacheable,
)
from repro.engine.supervisor import Supervisor, get_breakers
from repro.suites import get_benchmark
from repro.sygus import print_sygus
from repro.testing.faults import reset_fault_state


@pytest.fixture(autouse=True)
def _isolate_store_state(monkeypatch):
    monkeypatch.delenv(STORE_ENV, raising=False)
    monkeypatch.delenv(STORE_MAX_BYTES_ENV, raising=False)
    monkeypatch.delenv("REPRO_NAY_FAULTS", raising=False)
    previous = install_result_store(None)
    get_breakers().reset()
    reset_fault_state()
    yield
    install_result_store(previous)
    get_breakers().reset()
    reset_fault_state()


def payload(verdict="unrealizable", pad=0, **overrides):
    """A minimal cacheable response payload (padded to control its size)."""
    base = {
        "verdict": verdict,
        "engine": "naySL",
        "kind": "check",
        "problem": "plane1",
        "elapsed_seconds": 0.01,
        "solver_stats": {},
        "details": {"pad": "x" * pad} if pad else {},
    }
    base.update(overrides)
    return base


def canonical(payload_dict):
    """The byte string the differential tests compare."""
    return json.dumps(pristine_response(payload_dict), sort_keys=True)


# ---------------------------------------------------------------------------
# Unit: one ResultStore
# ---------------------------------------------------------------------------


class TestResultStoreUnit:
    def test_put_get_roundtrip_and_counters(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        stored, evicted = store.put("fp1", "naySL", payload())
        assert (stored, evicted) == (True, 0)
        assert store.get("fp1", "naySL") == payload()
        assert store.get("fp1", "nayHorn") is None  # engine is part of the key
        counters = store.counters
        assert counters["stores"] == 1
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        assert store.stores_recorded() == 1

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put("fp", "naySL", payload())
        assert store.get("fp", "naySL", schema_version=SCHEMA_VERSION + 1) is None
        assert store.get("fp", "naySL", schema_version=SCHEMA_VERSION) == payload()
        # Different schema versions coexist rather than clobbering each other.
        store.put("fp", "naySL", payload(problem="other"), schema_version=SCHEMA_VERSION + 1)
        assert store.get("fp", "naySL") == payload()

    def test_lru_eviction_respects_bound_and_recency(self, tmp_path):
        one = len(json.dumps(payload(problem="p0", pad=200), sort_keys=True))
        store = ResultStore(tmp_path / "s.sqlite", max_bytes=3 * one + 10)
        for index in range(3):
            store.put(f"fp{index}", "naySL", payload(problem=f"p{index}", pad=200))
        # Touch fp0 so fp1 becomes the least-recently-accessed row.
        assert store.get("fp0", "naySL") is not None
        stored, evicted = store.put("fp3", "naySL", payload(problem="p3", pad=200))
        assert stored and evicted == 1
        assert store.get("fp1", "naySL") is None  # the LRU victim
        assert store.get("fp0", "naySL") is not None  # recency saved it
        assert store.get("fp3", "naySL") is not None
        snapshot = store.snapshot()
        assert snapshot["size_bytes"] <= store.max_bytes
        assert snapshot["evictions_total"] == 1
        assert store.counters["evictions"] == 1

    def test_eviction_never_deletes_the_row_just_written(self, tmp_path):
        one = len(json.dumps(payload(pad=500), sort_keys=True))
        store = ResultStore(tmp_path / "s.sqlite", max_bytes=one + 5)
        store.put("fpA", "naySL", payload(pad=500))
        stored, evicted = store.put("fpB", "naySL", payload(pad=500))
        assert stored and evicted == 1
        assert store.get("fpA", "naySL") is None
        assert store.get("fpB", "naySL") is not None

    @pytest.mark.parametrize(
        "bad",
        [
            payload(verdict="unknown"),
            payload(verdict="timeout"),
            payload(verdict="error", error="boom"),
            payload(error="late failure"),
            payload(solver_stats={"faults_injected": 1}),
            payload(details={"fault_events": [{"kind": "slow"}]}),
        ],
    )
    def test_uncacheable_payloads_refused(self, tmp_path, bad):
        assert not response_cacheable(bad)
        store = ResultStore(tmp_path / "s.sqlite")
        assert store.put("fp", "naySL", bad) == (False, 0)
        assert store.get("fp", "naySL") is None

    def test_oversize_payload_refused(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite", max_bytes=64)
        assert store.put("fp", "naySL", payload(pad=500)) == (False, 0)
        assert store.snapshot()["entries"] == 0

    def test_corrupted_file_quarantined_not_fatal(self, tmp_path):
        path = tmp_path / "s.sqlite"
        path.write_bytes(b"this is not a sqlite database at all\x00\xff" * 40)
        store = ResultStore(path)
        assert store.get("fp", "naySL") is None  # degraded to a miss
        assert store.put("fp", "naySL", payload())[0] is True
        assert store.get("fp", "naySL") == payload()
        quarantined = list(tmp_path.glob("s.sqlite.corrupt-*"))
        assert quarantined, "damaged file should be renamed aside"

    def test_locked_file_is_a_miss_not_quarantined(self, tmp_path):
        """A file locked past the busy timeout is healthy: the operations
        degrade to a miss and a no-op, and nothing is moved aside."""
        path = tmp_path / "s.sqlite"
        store = ResultStore(path)
        store.busy_timeout_seconds = 0.2
        store.put("fp", "naySL", payload())
        blocker = sqlite3.connect(path, isolation_level=None)
        try:
            blocker.execute("BEGIN IMMEDIATE")
            assert store.get("fp", "naySL") is None
            assert store.put("fp2", "naySL", payload()) == (False, 0)
            blocker.execute("ROLLBACK")
        finally:
            blocker.close()
        assert store.counters["errors"] == 2
        assert not list(tmp_path.glob("s.sqlite.corrupt-*"))
        assert store.get("fp", "naySL") == payload()

    def test_torn_row_deleted_and_reported_as_miss(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = ResultStore(path)
        store.put("fp", "naySL", payload())
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE results SET response = '{torn'")
        assert store.get("fp", "naySL") is None
        assert store.counters["errors"] == 1
        assert store.snapshot()["entries"] == 0  # the torn row is gone

    def test_pickle_roundtrip_shares_the_file(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite", max_bytes=12345)
        store.put("fp", "naySL", payload())
        clone = pickle.loads(pickle.dumps(store))
        assert (clone.path, clone.max_bytes) == (store.path, 12345)
        assert clone.get("fp", "naySL") == payload()

    def test_env_var_overrides_default_bound(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_MAX_BYTES_ENV, "4096")
        assert ResultStore(tmp_path / "s.sqlite").max_bytes == 4096

    def test_snapshot_shape(self, tmp_path):
        snapshot = ResultStore(tmp_path / "s.sqlite").snapshot()
        for key in (
            "path",
            "max_bytes",
            "hits",
            "misses",
            "stores",
            "evictions",
            "bypasses",
            "errors",
            "entries",
            "size_bytes",
            "stores_total",
            "evictions_total",
        ):
            assert key in snapshot


class TestOneConnection:
    """Every thread of a process shares the store's one connection."""

    def test_gets_on_fresh_threads_open_one_connection(self, tmp_path, monkeypatch):
        path = tmp_path / "s.sqlite"
        writer = ResultStore(path)
        writer.put("fp", "naySL", payload())
        writer.close()
        store = ResultStore(path)
        opened = []
        connect = sqlite3.connect

        def counting_connect(*args, **kwargs):
            opened.append(args[0])
            return connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting_connect)
        replies = []
        for _ in range(50):
            thread = threading.Thread(
                target=lambda: replies.append(store.get("fp", "naySL"))
            )
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert replies == [payload()] * 50
        assert opened == [str(path)]
        # No thread's exit closed it, so the WAL was never checkpointed away;
        # closing the last connection does that, once.
        assert os.path.exists(f"{path}-wal")
        store.close()
        assert not os.path.exists(f"{path}-wal")

    def test_threads_interleave_whole_operations(self, tmp_path):
        """8 threads x 100 mixed calls: no transaction interleaves with
        another's (a nested ``BEGIN IMMEDIATE`` would count an error)."""
        store = ResultStore(tmp_path / "s.sqlite")
        done = []

        def work(index):
            gets = puts = 0
            for step in range(100):
                fingerprint = f"fp{(index * 7 + step) % 10}"
                kind = (index + step) % 3
                if kind == 0:
                    reply = payload(problem=fingerprint)
                    stored, _ = store.put(fingerprint, "naySL", reply)
                    puts += stored
                elif kind == 1:
                    store.get(fingerprint, "naySL")
                    gets += 1
                else:
                    store.snapshot()
            done.append((gets, puts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(done) == 8
        gets = sum(g for g, _ in done)
        puts = sum(p for _, p in done)
        counters = store.counters
        assert counters["errors"] == 0
        assert counters["hits"] + counters["misses"] == gets
        assert counters["stores"] == puts
        assert store.stores_recorded() == puts


# ---------------------------------------------------------------------------
# The ambient store
# ---------------------------------------------------------------------------


class TestAmbientStore:
    def test_unconfigured_is_none(self):
        assert get_result_store() is None

    def test_env_path_opens_lazily_and_memoizes(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env.sqlite"))
        first = get_result_store()
        assert first is not None and first.path == str(tmp_path / "env.sqlite")
        assert get_result_store() is first

    def test_installed_store_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env.sqlite"))
        pinned = ResultStore(tmp_path / "pinned.sqlite")
        install_result_store(pinned)
        assert get_result_store() is pinned


# ---------------------------------------------------------------------------
# Fingerprint semantics (the tag allowlist)
# ---------------------------------------------------------------------------


class TestFingerprintSemantics:
    def test_fault_tags_are_not_semantic(self):
        assert "faults" not in SEMANTIC_TAGS

    def test_chaos_twin_hashes_identically(self):
        clean = SolveRequest(benchmark="plane1", engine="naySL", kind="check")
        chaos = SolveRequest(
            benchmark="plane1",
            engine="naySL",
            kind="check",
            tags={"faults": "slow@naySL:0.5"},
        )
        assert request_fingerprint(clean.to_json()) == request_fingerprint(
            chaos.to_json()
        )

    def test_absent_and_vacuous_tags_agree(self):
        base = {"benchmark": "plane1", "engine": "naySL"}
        assert (
            request_fingerprint(base)
            == request_fingerprint({**base, "tags": {}})
            == request_fingerprint({**base, "tags": {"faults": "crash@*"}})
        )

    def test_semantic_tags_still_split_fingerprints(self):
        base = {"benchmark": "plane1", "engine": "naySL"}
        assert request_fingerprint(base) != request_fingerprint(
            {**base, "tags": {"prune": "reduce"}}
        )

    def test_store_refuses_fault_evidence_even_under_clean_key(self, tmp_path):
        """The twin hashes identically, but a poisoned payload never lands."""
        store = ResultStore(tmp_path / "s.sqlite")
        fingerprint = request_fingerprint(
            SolveRequest(benchmark="plane1", engine="naySL").to_json()
        )
        poisoned = payload(solver_stats={"faults_injected": 2})
        assert store.put(fingerprint, "naySL", poisoned) == (False, 0)
        assert store.get(fingerprint, "naySL") is None


# ---------------------------------------------------------------------------
# Facade integration: the Solver door looks up and records
# ---------------------------------------------------------------------------


class TestFacadeIntegration:
    def test_run_engine_miss_then_hit_markers(self, tmp_path):
        install_result_store(ResultStore(tmp_path / "s.sqlite"))
        solver = Solver(timeout_seconds=30.0)
        first = solver.check("plane1")
        assert first.solver_stats.get("store_misses") == 1
        assert first.solver_stats.get("store_stores") == 1
        second = solver.check("plane1")
        assert second.solver_stats.get("store_hits") == 1
        assert "store_misses" not in second.solver_stats

    def test_hit_is_byte_identical_modulo_markers(self, tmp_path):
        install_result_store(ResultStore(tmp_path / "s.sqlite"))
        solver = Solver(timeout_seconds=30.0)
        first = solver.check("guard1")
        second = solver.check("guard1")
        assert canonical(first.to_json()) == canonical(second.to_json())
        assert second.certificate is not None
        # The replayed elapsed time is the original solve's, not the read's.
        assert second.elapsed_seconds == first.elapsed_seconds

    def test_fault_tagged_requests_bypass_both_directions(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        install_result_store(store)
        solver = Solver(timeout_seconds=30.0)
        chaos = solver.check("plane1", tags={"faults": "slow@naySL:0.01"})
        assert chaos.verdict == "unrealizable"
        assert chaos.solver_stats.get("store_bypasses") == 1
        assert "store_hits" not in chaos.solver_stats
        assert store.snapshot()["entries"] == 0  # nothing written
        # A later clean run is a genuine miss: the chaos run neither
        # populated the store nor read from it.
        clean = solver.check("plane1")
        assert clean.solver_stats.get("store_misses") == 1
        # And the chaos twin's evidence never lands even via a direct put.
        assert not response_cacheable(chaos.to_json())

    def test_solve_batch_prefilters_solved_fingerprints(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        install_result_store(store)
        solver = Solver(timeout_seconds=30.0)
        problems = ["plane1", "guard1", "plane2"]
        cold = solver.solve_batch(problems)
        assert [response.verdict for response in cold] == ["unrealizable"] * 3
        recorded = store.stores_recorded()
        assert recorded == 3  # one row per request, written at the door
        warm = solver.solve_batch(problems)
        assert [response.verdict for response in warm] == ["unrealizable"] * 3
        assert all(r.solver_stats.get("store_hits") == 1 for r in warm)
        assert store.stores_recorded() == recorded  # no new solves recorded

    def test_batch_responses_match_cold_run_byte_for_byte(self, tmp_path):
        install_result_store(ResultStore(tmp_path / "s.sqlite"))
        solver = Solver(timeout_seconds=30.0)
        cold = solver.solve_batch(["plane1", "guard1"])
        warm = solver.solve_batch(["plane1", "guard1"])
        for before, after in zip(cold, warm):
            assert canonical(before.to_json()) == canonical(after.to_json())

    def test_edited_sl_file_is_solved_again(self, tmp_path):
        """A ``path`` request is keyed by the file's text, not only its name,
        so editing the file between runs never replays the old verdict."""
        install_result_store(ResultStore(tmp_path / "s.sqlite"))
        solver = Solver(timeout_seconds=30.0)
        path = tmp_path / "problem.sl"
        path.write_text(print_sygus(get_benchmark("plane1").problem))
        (first,) = solver.solve_batch([path])
        assert first.verdict == "unrealizable"
        assert first.solver_stats.get("store_stores") == 1
        (again,) = solver.solve_batch([path])
        assert again.solver_stats.get("store_hits") == 1
        # The same grammar with the spec f(x) = x: realizable by ``x``.
        path.write_text(
            print_sygus(get_benchmark("plane1").problem).replace("(- 2)", "(- 1)")
        )
        (edited,) = solver.solve_batch([path])
        assert "store_hits" not in edited.solver_stats
        assert edited.verdict == "realizable"

    def test_file_edited_during_its_solve_is_solved_again(
        self, tmp_path, monkeypatch
    ):
        """The door keys a ``path`` request once, before the solve: a file
        edited while it solves files the old verdict under the old text's
        key, so the edited text is solved, not answered from the store."""
        import repro.api.facade as facade

        install_result_store(ResultStore(tmp_path / "s.sqlite"))
        solver = Solver(timeout_seconds=30.0)
        path = tmp_path / "problem.sl"
        original = print_sygus(get_benchmark("plane1").problem)
        path.write_text(original)
        execute = facade.execute_request

        def solve_then_edit(request):
            response = execute(request)
            path.write_text(original.replace("(- 2)", "(- 1)"))
            return response

        monkeypatch.setattr(facade, "execute_request", solve_then_edit)
        (first,) = solver.solve_batch([path])
        assert first.verdict == "unrealizable"
        assert first.solver_stats.get("store_stores") == 1
        monkeypatch.setattr(facade, "execute_request", execute)
        (edited,) = solver.solve_batch([path])
        assert "store_hits" not in edited.solver_stats
        assert edited.verdict == "realizable"


class TestRequestKey:
    def test_regular_file_key_follows_its_bytes(self, tmp_path):
        path = tmp_path / "problem.sl"
        path.write_text("(a)")
        request = SolveRequest(path=str(path), engine="naySL")
        before = request_key(request)
        path.write_text("(b)")
        assert request_key(request) not in (None, before)
        assert request_key(SolveRequest(sl="(a)", engine="naySL")) != before

    @pytest.mark.parametrize("kind", ["directory", "fifo", "missing", "nul", "int"])
    def test_path_without_regular_file_has_no_key(self, tmp_path, kind):
        if kind == "fifo" and not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        if kind == "fifo":
            os.mkfifo(tmp_path / "pipe.sl")
        path = {
            "directory": str(tmp_path),
            "fifo": str(tmp_path / "pipe.sl"),  # never opened: no writer needed
            "missing": str(tmp_path / "absent.sl"),
            "nul": "bad\x00name.sl",
            "int": 1,
        }[kind]
        request = SolveRequest(path=path, engine="naySL")
        # In a thread: opening a FIFO with no writer would block forever.
        keys = []
        worker = threading.Thread(
            target=lambda: keys.append(request_key(request)), daemon=True
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "request_key blocked on the path"
        assert keys == [None]
        store = ResultStore(tmp_path / "s.sqlite")
        install_result_store(store)
        assert lookup(request) == (None, None)
        assert store.counters["bypasses"] == 1


# ---------------------------------------------------------------------------
# Differential sweep: every registered engine, store vs fresh
# ---------------------------------------------------------------------------


#: The registry's built-in engines, pinned explicitly: ``engine_names()``
#: at collection time can include transient engines other test modules
#: register (e.g. the fabric suite's ``slowpoke``).
SWEEP_ENGINES = ("naySL", "nayHorn", "nope", "nayInt", "nayFin")


class TestDifferentialSweep:
    def test_sweep_covers_every_builtin_engine(self):
        assert set(SWEEP_ENGINES) <= set(engine_names())

    # Note: the parameter is "bench", not "benchmark" — pytest-benchmark
    # reserves the latter name for its own fixture.
    @pytest.mark.parametrize("engine", SWEEP_ENGINES)
    @pytest.mark.parametrize("bench", ["plane1", "guard1"])
    def test_store_served_equals_fresh_solve(self, tmp_path, engine, bench):
        install_result_store(ResultStore(tmp_path / "s.sqlite"))
        solver = Solver(timeout_seconds=60.0)
        fresh = solver.check(bench, engine=engine)
        assert fresh.verdict == "unrealizable"
        assert fresh.solver_stats.get("store_stores") == 1
        served = solver.check(bench, engine=engine)
        assert served.solver_stats.get("store_hits") == 1
        assert canonical(fresh.to_json()) == canonical(served.to_json())
        # The replayed certificate still convinces the independent checker.
        assert served.certificate is not None
        problem = get_benchmark(bench).problem
        assert check_certificate(problem, served.certificate)

    def test_markers_are_the_only_difference(self, tmp_path):
        """The pristine view strips exactly the store-provenance keys."""
        install_result_store(ResultStore(tmp_path / "s.sqlite"))
        solver = Solver(timeout_seconds=30.0)
        fresh = solver.check("plane1").to_json()
        served = solver.check("plane1").to_json()
        fresh_markers = set(fresh["solver_stats"]) & STORE_STAT_KEYS
        served_markers = set(served["solver_stats"]) & STORE_STAT_KEYS
        assert fresh_markers == {"store_misses", "store_stores"}
        assert served_markers == {"store_hits"}


# ---------------------------------------------------------------------------
# One tier: only the doors touch the store
# ---------------------------------------------------------------------------


class TestOneStoreTier:
    def test_fabric_workers_never_touch_the_store(self, tmp_path, monkeypatch):
        """Neither a worker's pre-warm solve nor the requests it runs read
        or write the store named in its environment."""
        store_path = tmp_path / "shared.sqlite"
        monkeypatch.setenv(STORE_ENV, str(store_path))
        request = SolveRequest(
            benchmark="guard1", engine="naySL", kind="check", timeout_seconds=30.0
        )
        with Supervisor(1, warm=True, name="store-untouched") as fabric:
            response = fabric.solve(request)
        assert response.verdict == "unrealizable"
        assert ResultStore(store_path).snapshot()["entries"] == 0
        assert not set(response.solver_stats) & STORE_STAT_KEYS


# ---------------------------------------------------------------------------
# Cross-process: the fabric against one store file
# ---------------------------------------------------------------------------


def _mp_child_reads(store, fingerprint, queue):
    """Module-level so both fork and spawn contexts can pickle it."""
    queue.put(store.get(fingerprint, "naySL"))


def _mp_child_writes(store, fingerprint, queue):
    queue.put(store.put(fingerprint, "naySL", payload(problem="from-child")))


class TestCrossProcess:
    def _requests(self, benchmarks):
        return [
            SolveRequest(
                benchmark=name, engine="naySL", kind="check", timeout_seconds=30.0
            )
            for name in benchmarks
        ]

    def test_two_workers_exactly_one_solve_per_fingerprint(
        self, tmp_path, monkeypatch
    ):
        """The counter-based witness: N unique requests batched over a
        2-worker fabric record exactly N stores; a second pass (with
        duplicates) is all hits and records nothing new."""
        store_path = tmp_path / "shared.sqlite"
        monkeypatch.setenv(STORE_ENV, str(store_path))
        benchmarks = ["plane1", "guard1", "plane2", "guard2"]
        solver = Solver(workers=2)
        cold = solver.solve_batch(self._requests(benchmarks))
        assert [r.verdict for r in cold] == ["unrealizable"] * 4
        witness = ResultStore(store_path)
        recorded = witness.stores_recorded()
        assert recorded == len(benchmarks)
        warm = solver.solve_batch(self._requests(benchmarks + benchmarks))
        assert [r.verdict for r in warm] == ["unrealizable"] * 8
        assert all(r.solver_stats.get("store_hits") == 1 for r in warm)
        assert witness.stores_recorded() == recorded

    def test_warm_responses_replay_cold_bytes_across_processes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "shared.sqlite"))
        solver = Solver(workers=2)
        cold = solver.solve_batch(self._requests(["plane1", "guard1"]))
        warm = solver.solve_batch(self._requests(["plane1", "guard1"]))
        for before, after in zip(cold, warm):
            assert canonical(before.to_json()) == canonical(after.to_json())

    def test_child_forked_while_the_store_lock_is_held(self, tmp_path):
        """A forked child gets a free lock and its own connection, even when
        a parent thread held the store lock at the fork."""
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("fork start method unavailable")
        store = ResultStore(tmp_path / "s.sqlite")
        store.put("fp-parent", "naySL", payload())
        held, release = threading.Event(), threading.Event()

        def hold():
            with store._lock:
                held.set()
                release.wait(60)

        holder = threading.Thread(target=hold)
        holder.start()
        queue = context.Queue()
        child = context.Process(
            target=_mp_child_reads, args=(store, "fp-parent", queue)
        )
        try:
            assert held.wait(10)
            child.start()
            assert queue.get(timeout=30) == payload()
            child.join(timeout=30)
            assert child.exitcode == 0
        finally:
            release.set()
            holder.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
        assert not holder.is_alive()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_store_object_crosses_process_boundaries(self, tmp_path, method):
        try:
            context = multiprocessing.get_context(method)
        except ValueError:
            pytest.skip(f"{method} start method unavailable")
        store = ResultStore(tmp_path / "s.sqlite")
        store.put("fp-parent", "naySL", payload())
        queue = context.Queue()
        reader = context.Process(
            target=_mp_child_reads, args=(store, "fp-parent", queue)
        )
        reader.start()
        reader.join(timeout=60)
        assert reader.exitcode == 0
        assert queue.get(timeout=10) == payload()
        writer = context.Process(
            target=_mp_child_writes, args=(store, "fp-child", queue)
        )
        writer.start()
        writer.join(timeout=60)
        assert writer.exitcode == 0
        assert queue.get(timeout=10) == (True, 0)
        # WAL safety: the parent's (pre-fork) connection sees the child's row.
        assert store.get("fp-child", "naySL") == payload(problem="from-child")
        assert store.stores_recorded() == 2
