"""The supervised solve fabric: pre-warmed workers that survive their engines.

This module is the one place the library starts processes.  The portfolio
racer (one :meth:`Supervisor.solve` per leg), ``Solver.solve_batch`` (and
through it the experiment runner's ``--workers N``) and ``repro-nay serve``
all run on it, through the same door.  A throwaway
``ProcessPoolExecutor`` has no failure story: a leg that dies poisons the
whole pool (every sibling future collapses with ``BrokenProcessPool``), a
stuck worker is only caught by a wall-clock guard in the parent, and every
pool start re-pays the import and cache warm-up an engine needs.
:class:`Supervisor` is a *supervised* pool instead:

* **pre-warmed, persistent workers** — each worker process imports the
  engine stack and runs one tiny end-to-end check at start, so the intern
  tables, GFA cache and lemma store are hot before the first real request
  and stay hot across requests;
* **liveness** — crash detection is event-driven (pipe EOF + dead-PID
  checks while harvesting) and backstopped by heartbeats that ping idle
  workers and reap silently dead ones;
* **automatic replacement** — a crashed, corrupted or cancelled worker is
  killed (SIGTERM, then SIGKILL after a grace period) and replaced
  immediately, so the pool never shrinks;
* **deadline propagation** — every job carries its remaining soft budget
  into the worker, so engine-side timeouts fire *inside* the leg
  (``SolverLimitError`` → a clean ``timeout`` verdict) instead of only at
  the parent's hard guard;
* **retry with jittered exponential backoff** — only for *transient*
  failures (worker crash, corrupt reply); deterministic ``error`` verdicts
  and timeouts are never retried;
* **per-engine circuit breakers** — K consecutive failed requests (every
  attempt crashed, or the hard guard fired) trip an engine's breaker;
  portfolio and staged ladders skip tripped legs and degrade to the
  remaining engines; after a cooldown a half-open probe re-admits the
  engine.  A reply from a live worker is never a failure;
* **cancellation** — a request solved with a cancel event stops as soon as
  the event is set, waiting for a worker or running on one (whose worker
  is killed), so a portfolio race stops its losers.

Requests and responses cross the worker pipe in wire form
(:class:`~repro.api.wire.SolveRequest` / ``SolveResponse`` payloads), the
same format ``repro-nay serve`` speaks, so the fabric exercises exactly the
service surface.  Fabric bookkeeping is surfaced on every response:
``solver_stats["retries"
]``/``["workers_replaced"]``/``["breaker_trips"]`` (additive; the wire
schema is unchanged).

``install_fabric`` makes one supervisor ambient for the process —
``repro-nay serve`` installs its pool there so the portfolio racer reuses
the warm workers instead of forking per race.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection
from typing import Any, Dict, List, NoReturn, Optional, Sequence

from repro.api.wire import SolveRequest, SolveResponse, error_response
from repro.utils.errors import ReproError

#: Default fabric size (overridable per supervisor or via REPRO_NAY_WORKERS).
DEFAULT_WORKERS_ENV = "REPRO_NAY_WORKERS"

#: How long to wait for a fresh worker's ready handshake before declaring it
#: dead on arrival.
READY_TIMEOUT_SECONDS = 60.0

#: SIGTERM → SIGKILL escalation grace when retiring a worker.
TERM_GRACE_SECONDS = 1.0

#: Slice size for liveness-checking polls while a job is outstanding: the
#: busy-worker heartbeat.  Small enough that a SIGKILLed worker is noticed
#: promptly even if pipe EOF is delayed by inherited descriptors.
POLL_SLICE_SECONDS = 0.25

#: Slice size for a request that can be cancelled (a portfolio race leg):
#: how soon a leg notices that its race is decided.
CANCEL_SLICE_SECONDS = 0.02

#: Hard wall-clock guard: how long past a request's soft timeout the fabric
#: waits for its worker before killing it and answering ``timeout``.
HARD_TIMEOUT_FACTOR = 3.0
HARD_TIMEOUT_MARGIN = 30.0


def hard_guard(timeout: Optional[float]) -> Optional[float]:
    """The hard wall-clock budget for a soft timeout (None = unbounded).

    One policy for every fabric consumer: ``Supervisor.solve`` (and so
    ``solve_batch``, the experiment runner and every portfolio race leg)
    and the serve endpoint's dedup followers all wait this long before
    writing a worker off as stuck.
    """
    if timeout is None:
        return None
    return timeout * HARD_TIMEOUT_FACTOR + HARD_TIMEOUT_MARGIN


def default_worker_count() -> int:
    configured = os.environ.get(DEFAULT_WORKERS_ENV)
    if configured:
        return max(1, int(configured))
    return max(2, min(4, os.cpu_count() or 2))


class FabricError(ReproError):
    """Base class for solve-fabric failures."""


class WorkerCrashError(FabricError):
    """A worker died (or replied garbage) while owning a job — transient."""


class FabricTimeoutError(FabricError):
    """A job exceeded its hard wall-clock budget with the worker still busy."""


class FabricSaturatedError(FabricError):
    """No worker became available within the admission timeout."""


class FabricCancelledError(FabricError):
    """The request's cancel event was set before it got a reply."""


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with jittered exponential backoff.

    Applies only to *transient* failures (worker crash, corrupt reply, pool
    breakage) — a deterministic ``error`` verdict ran to completion and
    would fail identically again, so it is never retried; a timeout already
    consumed the request's budget.

    >>> RetryPolicy(max_attempts=3).delay(1, random.Random(0)) > 0
    True
    """

    max_attempts: int = 3  # total attempts, first try included
    base_delay_seconds: float = 0.05
    max_delay_seconds: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5  # +/- fraction of the raw delay

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = min(
            self.max_delay_seconds,
            self.base_delay_seconds * self.multiplier ** max(0, attempt - 1),
        )
        if self.jitter <= 0:
            return raw
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


# ---------------------------------------------------------------------------
# Circuit breakers
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """closed → (K consecutive crash/hard-timeout failures) → open → half-open.

    The fabric records one failure per request, not per attempt: a crash
    that a retry recovers from is no failure at all.

    ``closed`` admits everything; ``open`` admits nothing until
    ``cooldown_seconds`` have passed, then a single half-open probe is let
    through — its success closes the breaker, its failure re-opens it (and
    restarts the cooldown).  Thread-safe; failures are *consecutive*, so any
    success resets the count.
    """

    def __init__(
        self,
        name: str,
        *,
        threshold: int = 3,
        cooldown_seconds: float = 30.0,
    ):
        self.name = name
        self.threshold = max(1, int(threshold))
        self.cooldown_seconds = cooldown_seconds
        self.state = "closed"  # "closed" | "open" | "half_open"
        self.consecutive_failures = 0
        self.trips = 0
        self._opened_at = 0.0
        self._lock = threading.Lock()

    def allow(self) -> bool:
        """May a request run this engine right now?"""
        with self._lock:
            if self.state == "closed":
                return True
            if self.state == "open":
                if time.monotonic() - self._opened_at >= self.cooldown_seconds:
                    self.state = "half_open"  # admit exactly one probe
                    return True
                return False
            return False  # half_open: probe outstanding

    def record_success(self) -> None:
        with self._lock:
            self.state = "closed"
            self.consecutive_failures = 0

    def release_probe(self) -> None:
        """A half-open probe ended with no signal (e.g. a race leg cancelled
        because a sibling won): return to ``open`` with the cooldown already
        served, so the very next request re-probes."""
        with self._lock:
            if self.state == "half_open":
                self.state = "open"
                self._opened_at = time.monotonic() - self.cooldown_seconds

    def record_reply(self, verdict: str) -> None:
        """A live worker (or an in-process run) answered: never a failure.

        A definitive or ``unknown`` verdict closes the breaker; an in-budget
        ``timeout`` or an ``error`` says nothing about the engine's health,
        so it only hands a half-open probe back.
        """
        if verdict in ("timeout", "error"):
            self.release_probe()
        else:
            self.record_success()

    def record_failure(self) -> None:
        with self._lock:
            if self.state == "half_open":
                self.state = "open"  # failed probe: back to cooldown
                self._opened_at = time.monotonic()
                self.consecutive_failures += 1
                return
            self.consecutive_failures += 1
            if self.state == "closed" and self.consecutive_failures >= self.threshold:
                self.state = "open"
                self.trips += 1
                self._opened_at = time.monotonic()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "trips": self.trips,
            }


class BreakerBoard:
    """One :class:`CircuitBreaker` per engine, created lazily."""

    def __init__(self, *, threshold: int = 3, cooldown_seconds: float = 30.0):
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def for_engine(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    name,
                    threshold=self.threshold,
                    cooldown_seconds=self.cooldown_seconds,
                )
                self._breakers[name] = breaker
            return breaker

    def allow(self, name: str) -> bool:
        return self.for_engine(name).allow()

    def trips_total(self) -> int:
        with self._lock:
            return sum(breaker.trips for breaker in self._breakers.values())

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            breakers = dict(self._breakers)
        return {name: breaker.snapshot() for name, breaker in sorted(breakers.items())}

    def reset(self) -> None:
        with self._lock:
            self._breakers.clear()


#: Process-wide breaker board: crashes accumulate across ephemeral
#: supervisors (every portfolio race sees the same history), and the serve
#: endpoint reports it on ``/healthz``.
_GLOBAL_BREAKERS = BreakerBoard()


def get_breakers() -> BreakerBoard:
    return _GLOBAL_BREAKERS


# ---------------------------------------------------------------------------
# The worker side
# ---------------------------------------------------------------------------


def _prewarm() -> None:
    """Warm the caches that make a cold worker's first request expensive.

    The benchmark lookup builds the process's benchmark index, and one tiny
    end-to-end exact check primes the intern tables, the GFA cache and the
    lemma store.  Warmth is best-effort — a cold worker is still a correct
    worker.
    """
    try:
        from repro.api.facade import run_engine
        from repro.suites import get_benchmark

        benchmark = get_benchmark("plane1", "LimitedPlus")
        run_engine(
            "naySL",
            "check",
            benchmark.problem,
            benchmark.witness_examples,
            timeout=10.0,
        )
    except Exception:  # noqa: BLE001 — warm-up must never kill a worker
        pass


def _worker_main(conn: Connection, warm: bool) -> None:
    """Worker entry: a loop of wire-form jobs on one persistent process."""
    from repro.testing.faults import corrupt_response, faults_armed, mark_worker_process

    mark_worker_process()
    if warm:
        _prewarm()
    try:
        conn.send(("ready", os.getpid()))
    except (BrokenPipeError, OSError):
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        kind = message[0]
        if kind == "ping":
            try:
                conn.send(("pong", message[1]))
            except (BrokenPipeError, OSError):
                break
            continue
        _, job_id, payload, soft_timeout = message
        engine_name = str(payload.get("engine", ""))
        tags = payload.get("tags") or {}
        try:
            from repro.api.facade import execute_request

            request = SolveRequest.from_json(payload)
            if soft_timeout is not None:
                budget = (
                    soft_timeout
                    if request.timeout_seconds is None
                    else min(request.timeout_seconds, soft_timeout)
                )
                request = replace(request, timeout_seconds=budget)
            reply = execute_request(request).to_json()
        except Exception as error:  # noqa: BLE001 — execute_request rarely raises
            reply = error_response(
                f"worker failure: {type(error).__name__}: {error}",
                engine=engine_name,
            ).to_json()
        if faults_armed(tags):
            # The corrupt-payload fault crosses here: what the parent
            # receives fails wire validation and counts as a worker failure.
            reply = corrupt_response(reply, engine_name, tags)
        try:
            conn.send(("done", job_id, reply))
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# The parent side
# ---------------------------------------------------------------------------


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = ("process", "conn", "ready", "jobs_done", "current_job")

    def __init__(self, process: multiprocessing.process.BaseProcess, conn: Connection):
        self.process = process
        self.conn = conn
        self.ready = False
        self.jobs_done = 0
        #: Id of the job this worker accepted and has not finished — ``None``
        #: while idle *and* during checkout (before the job message is sent),
        #: so :meth:`Supervisor.busy_pids` never fingers a worker that would
        #: be replaced silently if it died.
        self.current_job: Optional[int] = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def kill(self, grace_seconds: float = TERM_GRACE_SECONDS) -> None:
        """Retire the process: SIGTERM, then SIGKILL after the grace period."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(grace_seconds)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(5.0)
        else:
            self.process.join(0)  # reap a worker that already exited
        try:
            self.conn.close()
        except OSError:
            pass


class Job:
    """One outstanding request on one worker."""

    __slots__ = ("id", "worker", "request", "cancel", "done")

    def __init__(
        self,
        job_id: int,
        worker: _Worker,
        request: SolveRequest,
        cancel: Optional[threading.Event],
    ):
        self.id = job_id
        self.worker = worker
        self.request = request
        self.cancel = cancel
        self.done = False


class _Stats:
    """Thread-safe monotone counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def bump(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + amount

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


def _pick_context() -> multiprocessing.context.BaseContext:
    """``fork`` when safe (fast, inherits dynamically registered engines),
    ``spawn`` when this process already runs threads (forking a threaded
    process can deadlock the child on locks held elsewhere)."""
    if threading.active_count() == 1:
        try:
            return multiprocessing.get_context("fork")
        except ValueError:
            pass
    return multiprocessing.get_context("spawn")


class Supervisor:
    """A supervised, pre-warmed pool of solver worker processes.

    ``solve`` is the one door every consumer uses (checkout → job →
    harvest, with the retry policy, breaker bookkeeping and cancellation
    applied); ``submit`` / ``harvest`` / ``cancel`` are its steps, which the
    tests also drive one by one.  All of it is
    thread-safe — ``repro-nay serve`` and portfolio races call in from many
    threads at once.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        warm: bool = True,
        retry: Optional[RetryPolicy] = None,
        breakers: Optional[BreakerBoard] = None,
        name: str = "fabric",
    ):
        self.size = workers if workers is not None else default_worker_count()
        self.size = max(1, int(self.size))
        self.warm = warm
        self.retry = retry if retry is not None else RetryPolicy()
        self.breakers = breakers if breakers is not None else get_breakers()
        self.name = name
        self.stats = _Stats()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._idle: List[_Worker] = []
        self._busy: set = set()
        self._closed = False
        self._job_counter = 0
        self._rng = random.Random(0)
        self._heartbeat_stop: Optional[threading.Event] = None
        self._heartbeat_thread: Optional[threading.Thread] = None
        for _ in range(self.size):
            self._add_worker()

    # -- worker lifecycle -----------------------------------------------------

    def _spawn(self) -> _Worker:
        ctx = _pick_context()
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.warm),
            daemon=True,
            name=f"{self.name}-worker",
        )
        process.start()
        # Close our copy immediately so pipe EOF fires the moment the worker
        # dies (and later forks cannot inherit this end).
        child_conn.close()
        self.stats.bump("workers_spawned")
        return _Worker(process, parent_conn)

    def _add_worker(self) -> None:
        worker = self._spawn()
        with self._cond:
            if self._closed:
                pass
            else:
                self._idle.append(worker)
                self._cond.notify()
                return
        worker.kill()

    def _discard(self, worker: _Worker) -> None:
        """Retire a worker (crash, corruption, cancellation) and refill.

        A worker that :meth:`shutdown` has already taken off the pool is
        left to it: shutdown kills it, and nothing refills a closed pool.
        """
        with self._cond:
            owned = worker in self._busy or worker in self._idle
            self._busy.discard(worker)
            if worker in self._idle:
                self._idle.remove(worker)
        worker.current_job = None
        if not owned:
            return
        worker.kill()
        if not self._closed:
            self.stats.bump("workers_replaced")
            self._add_worker()

    def _release(self, worker: _Worker) -> None:
        """Return a healthy worker to the idle pool (unless shutdown took it)."""
        worker.jobs_done += 1
        worker.current_job = None
        with self._cond:
            if worker in self._busy:
                self._busy.discard(worker)
                self._idle.append(worker)
                self._cond.notify()

    def _ensure_ready(self, worker: _Worker) -> bool:
        """Consume the ready handshake of a freshly spawned worker."""
        if worker.ready:
            return True
        deadline = time.monotonic() + READY_TIMEOUT_SECONDS
        while time.monotonic() < deadline:
            try:
                if not worker.conn.poll(POLL_SLICE_SECONDS):
                    if not worker.process.is_alive():
                        return False
                    continue
                message = worker.conn.recv()
            except (EOFError, OSError):  # e.g. closed by a concurrent shutdown
                return False
            if message and message[0] == "ready":
                worker.ready = True
                return True
        return False

    # -- checkout / submit / harvest ------------------------------------------

    def _ready_index(self) -> int:
        """Index of the idle worker to check out (hold the lock).

        The newest worker whose handshake is consumed or already waiting in
        its pipe, else the newest: a replacement spawned after a crash is
        still starting up, and a request checked out on it would wait for
        its handshake while handshaken workers sit idle.
        """
        for index in range(len(self._idle) - 1, -1, -1):
            worker = self._idle[index]
            if worker.ready or worker.conn.poll(0):
                return index
        return -1

    def _checkout(
        self, timeout: Optional[float], cancel: Optional[threading.Event]
    ) -> _Worker:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._cond:
                while True:
                    if cancel is not None and cancel.is_set():
                        raise FabricCancelledError("cancelled waiting for a worker")
                    if self._idle:
                        break
                    if self._closed:
                        raise FabricError("supervisor is shut down")
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise FabricSaturatedError(
                            f"no idle worker within {timeout:.3f}s "
                            f"({self.size} workers, all busy)"
                        )
                    if cancel is not None:
                        # Setting the event does not notify this condition,
                        # so a cancellable checkout waits in slices.
                        remaining = min(
                            CANCEL_SLICE_SECONDS,
                            CANCEL_SLICE_SECONDS if remaining is None else remaining,
                        )
                    self._cond.wait(remaining)
                worker = self._idle.pop(self._ready_index())
                self._busy.add(worker)
            if self._ensure_ready(worker) and worker.process.is_alive():
                return worker
            self._discard(worker)  # dead on arrival: replace and try again

    def submit(
        self,
        request: SolveRequest,
        *,
        soft_timeout: Optional[float] = None,
        timeout: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
    ) -> Job:
        """Bind the request to a worker and start it (blocking checkout).

        Setting ``cancel`` stops the checkout, or later the harvest, with
        :class:`FabricCancelledError`.
        """
        worker = self._checkout(timeout, cancel)
        with self._lock:
            self._job_counter += 1
            job_id = self._job_counter
        job = Job(job_id, worker, request, cancel)
        if soft_timeout is None:
            soft_timeout = request.timeout_seconds
        try:
            worker.conn.send(("job", job.id, request.to_json(), soft_timeout))
        except (BrokenPipeError, OSError) as error:
            self._abandon(job, f"died before accepting the job: {error}")
        worker.current_job = job.id
        self.stats.bump("jobs_submitted")
        return job

    def harvest(self, job: Job, timeout: Optional[float] = None) -> SolveResponse:
        """Collect a job's response.

        Raises :class:`WorkerCrashError` when the worker died or replied
        garbage (the worker is replaced), :class:`FabricTimeoutError` when
        ``timeout`` elapses with the worker still busy (the job stays
        outstanding — callers decide whether to keep waiting or ``cancel``),
        and :class:`FabricCancelledError` within
        :data:`CANCEL_SLICE_SECONDS` of the job's cancel event being set
        (the worker is killed and replaced).
        """
        worker = job.worker
        deadline = None if timeout is None else time.monotonic() + timeout
        step = POLL_SLICE_SECONDS if job.cancel is None else CANCEL_SLICE_SECONDS
        while True:
            if job.cancel is not None and job.cancel.is_set():
                self._abandon(job, "cancelled")
            slice_seconds = step
            if deadline is not None:
                slice_seconds = min(step, max(0.0, deadline - time.monotonic()))
            try:
                ready = worker.conn.poll(slice_seconds)
                message = worker.conn.recv() if ready else None
            except (EOFError, OSError):
                self._abandon(job, "pipe closed mid-job")
            if ready:
                if not message or message[0] in ("ready", "pong"):
                    continue  # stale handshake/heartbeat traffic
                _, job_id, payload = message
                if job_id != job.id:
                    continue  # a cancelled predecessor's late reply
                try:
                    response = SolveResponse.from_json(payload)
                except Exception as error:  # noqa: BLE001 — corrupt reply
                    job.done = True
                    self.stats.bump("corrupt_replies")
                    self._discard(worker)
                    raise WorkerCrashError(
                        f"worker pid={worker.pid} replied a corrupt payload: {error}"
                    ) from None
                job.done = True
                self.stats.bump("jobs_completed")
                self._release(worker)
                return response
            if not worker.process.is_alive():
                self._abandon(job, f"process exited {worker.process.exitcode}")
            if deadline is not None and time.monotonic() >= deadline:
                raise FabricTimeoutError(
                    f"job on worker pid={worker.pid} still running at the deadline"
                )

    def _abandon(self, job: Job, why: str) -> NoReturn:
        """End a job that will not reply: retire its worker, raise why.

        A job whose cancel event is set was cancelled, even if its worker
        died first (a race pool shut down under it): that is no crash.
        """
        job.done = True
        pid = job.worker.pid
        self._discard(job.worker)
        if job.cancel is not None and job.cancel.is_set():
            self.stats.bump("jobs_cancelled")
            raise FabricCancelledError(f"job on worker pid={pid} cancelled") from None
        self.stats.bump("worker_crashes")
        raise WorkerCrashError(f"worker pid={pid} crashed ({why})") from None

    def cancel(self, job: Job) -> None:
        """Abandon an outstanding job: kill its worker, spawn a replacement."""
        if job.done:
            return
        job.done = True
        self.stats.bump("jobs_cancelled")
        self._discard(job.worker)

    # -- the one-call surface --------------------------------------------------

    def solve(
        self, request: SolveRequest, cancel: Optional[threading.Event] = None
    ) -> SolveResponse:
        """Run one request on the fabric with retries and breaker policy.

        Once ``cancel`` is set the request stops wherever it is — waiting
        for a worker, or running on one, which is killed — hands a
        half-open probe back and raises :class:`FabricCancelledError`.
        """
        from repro.api.facade import timeout_response

        engine = request.engine
        soft = request.timeout_seconds
        guard = hard_guard(soft)
        deadline = None if guard is None else time.monotonic() + guard
        breaker = self.breakers.for_engine(engine)
        if not breaker.allow():
            response = error_response(
                f"circuit breaker open for engine {engine!r} "
                f"(tripped after {breaker.threshold} consecutive failures; "
                f"half-open probe in <= {breaker.cooldown_seconds:.0f}s)",
                request,
                engine=engine,
            )
            response.details = {**response.details, "breaker": breaker.snapshot()}
            return response

        attempts = 0
        retries = 0
        replaced = 0
        trips_before = self.breakers.trips_total()
        failure: Optional[str] = None
        while True:
            attempts += 1
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                # Only retried crashes can spend the guard before an attempt.
                breaker.record_failure()
                response = timeout_response(request)
                break
            soft_remaining = soft
            if deadline is not None:
                soft_remaining = max(0.05, min(soft, deadline - time.monotonic()))
            try:
                job = self.submit(
                    request,
                    soft_timeout=soft_remaining,
                    timeout=remaining,
                    cancel=cancel,
                )
                response = self.harvest(job, timeout=remaining)
            except FabricCancelledError:
                breaker.release_probe()
                raise
            except FabricSaturatedError as error:
                breaker.release_probe()
                response = error_response(
                    f"solve fabric saturated: {error}", request, engine=engine
                )
                response.details = {**response.details, "saturated": True}
                break
            except WorkerCrashError as error:
                replaced += 1
                failure = str(error)
                if attempts < self.retry.max_attempts:
                    retries += 1
                    self.stats.bump("retries")
                    time.sleep(self.retry.delay(attempts, self._rng))
                    continue
                # The breaker counts requests, not attempts: a request that
                # crashes on every attempt is one failure.
                breaker.record_failure()
                response = self._crash_response(request, engine, attempts, failure)
                break
            except FabricTimeoutError:
                self.cancel(job)
                replaced += 1
                self.stats.bump("hard_timeouts")
                breaker.record_failure()
                response = timeout_response(request)
                response.details = {**response.details, "hard_guard": True}
                break
            breaker.record_reply(response.verdict)
            break

        trips = self.breakers.trips_total() - trips_before
        if retries or replaced or trips:
            response.solver_stats = {
                **response.solver_stats,
                "retries": retries,
                "workers_replaced": replaced,
                "breaker_trips": trips,
            }
        return response

    def _crash_response(
        self, request: SolveRequest, engine: str, attempts: int, failure: Optional[str]
    ) -> SolveResponse:
        response = error_response(
            f"engine worker crashed on every attempt "
            f"({attempts} of {self.retry.max_attempts}): {failure}",
            request,
            engine=engine,
        )
        response.details = {
            **response.details,
            "transient": True,
            "attempts": attempts,
        }
        return response

    def map(self, requests: Sequence[SolveRequest]) -> List[SolveResponse]:
        """Ordered fan-out of many requests over the fabric."""
        if len(requests) <= 1:
            return [self.solve(request) for request in requests]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(
            max_workers=min(self.size, len(requests)),
            thread_name_prefix=f"{self.name}-map",
        ) as threads:
            return list(threads.map(self.solve, requests))

    # -- liveness --------------------------------------------------------------

    def worker_pids(self) -> List[int]:
        with self._cond:
            workers = list(self._idle) + list(self._busy)
        return sorted(worker.pid for worker in workers if worker.pid is not None)

    def busy_pids(self) -> List[int]:
        """Pids with a *submitted, unfinished* job (the fault tests kill -9
        these).  Workers mid-checkout — busy, but with no job accepted yet —
        are excluded: killing one is silently absorbed by ``_checkout`` and
        would never register as a crash."""
        with self._cond:
            return sorted(
                worker.pid
                for worker in self._busy
                if worker.pid is not None and worker.current_job is not None
            )

    def heartbeat(self) -> Dict[str, int]:
        """Reap silently dead idle workers and ping the live ones.

        Busy workers are liveness-checked by their harvesting thread (the
        sliced poll in :meth:`harvest`); the heartbeat covers the idle pool,
        where nobody is watching the pipe.
        """
        reaped = 0
        pinged = 0
        with self._cond:
            idle = list(self._idle)
        for worker in idle:
            with self._cond:
                if worker not in self._idle:
                    continue  # checked out since the snapshot
                self._idle.remove(worker)
                self._busy.add(worker)
            if not worker.process.is_alive():
                self._discard(worker)
                reaped += 1
                continue
            alive = True
            if worker.ready:  # handshake already consumed: ping for a pong
                try:
                    worker.conn.send(("ping", -1))
                    alive = False
                    probe_deadline = time.monotonic() + 2.0
                    while time.monotonic() < probe_deadline:
                        if not worker.conn.poll(POLL_SLICE_SECONDS):
                            continue
                        message = worker.conn.recv()
                        if message and message[0] == "pong":
                            alive = True
                            break
                except (BrokenPipeError, EOFError, OSError):
                    alive = False
            if alive:
                pinged += 1
                with self._cond:
                    self._busy.discard(worker)
                    self._idle.append(worker)
                    self._cond.notify()
            else:
                self._discard(worker)
                reaped += 1
        if reaped:
            self.stats.bump("heartbeat_reaped", reaped)
        return {"reaped": reaped, "pinged": pinged}

    def start_heartbeat(self, interval_seconds: float = 15.0) -> None:
        """Run :meth:`heartbeat` on a daemon thread until shutdown."""
        if self._heartbeat_thread is not None:
            return
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(interval_seconds):
                try:
                    self.heartbeat()
                except Exception:  # noqa: BLE001 — the beat must not die
                    pass

        self._heartbeat_stop = stop
        self._heartbeat_thread = threading.Thread(
            target=beat, name=f"{self.name}-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    # -- teardown --------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker (SIGTERM, SIGKILL escalation) and close up."""
        if self._heartbeat_stop is not None:
            self._heartbeat_stop.set()
        with self._cond:
            self._closed = True
            workers = list(self._idle) + list(self._busy)
            self._idle.clear()
            self._busy.clear()
            self._cond.notify_all()
        for worker in workers:
            try:
                worker.conn.send(None)  # polite stop for idle workers
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.kill()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=2.0)
            self._heartbeat_thread = None
            self._heartbeat_stop = None

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


# ---------------------------------------------------------------------------
# The ambient fabric
# ---------------------------------------------------------------------------

_AMBIENT: Optional[Supervisor] = None
_AMBIENT_LOCK = threading.Lock()


def install_fabric(supervisor: Optional[Supervisor]) -> Optional[Supervisor]:
    """Install (or clear, with ``None``) the process-ambient fabric.

    Returns the previously installed supervisor (not shut down) so callers
    can restore it.  ``repro-nay serve`` installs its pool here; the
    portfolio racer picks it up via :func:`get_fabric` and only forks an
    ephemeral pool when nothing ambient exists.
    """
    global _AMBIENT
    with _AMBIENT_LOCK:
        previous, _AMBIENT = _AMBIENT, supervisor
    return previous


def get_fabric() -> Optional[Supervisor]:
    with _AMBIENT_LOCK:
        return _AMBIENT


def shutdown_fabric() -> None:
    previous = install_fabric(None)
    if previous is not None:
        previous.shutdown()
