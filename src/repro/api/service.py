"""``repro-nay serve``: the wire format over HTTP, stdlib only.

A thin :mod:`http.server` JSON endpoint that makes the solver callable as a
service:

* ``POST /solve``  — body is a :class:`~repro.api.wire.SolveRequest`
  payload; the reply is a :class:`~repro.api.wire.SolveResponse` payload
  (HTTP 200 even for ``verdict="error"`` responses — the request was
  well-formed and was executed).  Malformed JSON or wire-format violations
  get HTTP 400 with ``{"error": ...}``; a missing or oversized body gets
  HTTP 413; a saturated server gets HTTP 503 with a ``Retry-After`` header.
* ``GET /engines`` — the engine names a request may ask for, including the
  reserved ``"portfolio"``/``"staged"`` strategies.
* ``GET /healthz`` — liveness, the schema version this build speaks, the
  per-engine circuit-breaker board, and (when the solve fabric is
  installed) the fabric's worker pids and counters.

Robustness posture:

* **Admission control** — at most ``max_inflight`` requests solve at once;
  the rest are refused immediately with 503 + ``Retry-After`` instead of
  queueing without bound inside the threading server.
* **Request-size bound** — ``Content-Length`` is required and capped at
  ``max_request_bytes`` (HTTP 413), so a client cannot make the handler
  read an unbounded body.
* **In-flight dedup** — semantically identical prepared payloads (by
  :func:`repro.engine.results.request_fingerprint`, which ignores
  non-semantic tags such as fault-injection plans) share one execution:
  followers wait for the leader's response and get a copy marked
  ``details["deduplicated"] = true``.
* **Persistent result store** — when an ambient
  :class:`~repro.engine.store.ResultStore` is configured (``--store`` /
  ``REPRO_NAY_STORE``), requests are answered from it *before* admission
  control: a store hit costs one SQLite read, never a 503 + ``Retry-After``,
  and survives server restarts.  Leaders write definitive responses back
  after solving.  Fault-tagged requests bypass the store in both
  directions, and ``/healthz`` reports the hit/miss/store/eviction/bypass
  counters.
* **The solve fabric** — when ``serve`` installed a
  :class:`~repro.engine.supervisor.Supervisor`, single-engine requests run
  on its pre-warmed worker processes with crash recovery, retry/backoff and
  circuit breakers; the ``portfolio``/``staged`` strategies run in the
  handler thread and fan their legs out to the same fabric.

The server is a :class:`~http.server.ThreadingHTTPServer`.  There is
deliberately no web framework dependency — the repo stays stdlib-only by
design.

Example::

    repro-nay serve --port 8080 &
    curl -s localhost:8080/solve -d '{"benchmark": "plane1", "engine": "naySL"}'
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.api.facade import STRATEGY_ENGINES, Solver
from repro.api.wire import SCHEMA_VERSION, SolveRequest, SolveResponse
from repro.engine.store import STORE_ENV, ResultStore, get_result_store
from repro.utils.errors import WireFormatError

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8080

#: Admission-control default: how many requests may solve concurrently.
DEFAULT_MAX_INFLIGHT = 8

#: Request-size default: the largest ``POST /solve`` body accepted (bytes).
#: Real requests are a few KB of SyGuS text; 1 MiB is generous.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

#: The ``Retry-After`` seconds a saturated server suggests.
RETRY_AFTER_SECONDS = 1


class _Inflight:
    """One deduplicated execution: the leader solves, followers wait."""

    __slots__ = ("event", "payload")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Optional[Dict[str, Any]] = None


class ApiServer(ThreadingHTTPServer):
    """HTTP server carrying the :class:`Solver` the handlers dispatch to."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        solver: Optional[Solver] = None,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    ):
        super().__init__(address, ApiRequestHandler)
        self.solver = solver if solver is not None else Solver()
        self.max_inflight = max(1, int(max_inflight))
        self.max_request_bytes = max(1, int(max_request_bytes))
        self._admission = threading.Semaphore(self.max_inflight)
        self._inflight_count = 0
        self._count_lock = threading.Lock()
        self._dedup_lock = threading.Lock()
        self._dedup: Dict[str, _Inflight] = {}

    # -- admission -------------------------------------------------------------

    def try_admit(self) -> bool:
        if not self._admission.acquire(blocking=False):
            return False
        with self._count_lock:
            self._inflight_count += 1
        return True

    def readmit(self) -> None:
        with self._count_lock:
            self._inflight_count -= 1
        self._admission.release()

    @property
    def inflight(self) -> int:
        with self._count_lock:
            return self._inflight_count

    # -- dedup -----------------------------------------------------------------

    def claim(self, fingerprint: str) -> Tuple[_Inflight, bool]:
        """The in-flight entry for a fingerprint, plus leadership."""
        with self._dedup_lock:
            entry = self._dedup.get(fingerprint)
            if entry is not None:
                return entry, False
            entry = _Inflight()
            self._dedup[fingerprint] = entry
            return entry, True

    def settle(self, fingerprint: str, entry: _Inflight) -> None:
        """Publish the leader's outcome and retire the dedup entry."""
        with self._dedup_lock:
            if self._dedup.get(fingerprint) is entry:
                del self._dedup[fingerprint]
        entry.event.set()

    # -- execution -------------------------------------------------------------

    def execute(self, request: SolveRequest) -> SolveResponse:
        """Dispatch one prepared request: fabric when possible, else in-thread.

        The strategy engines stay in the handler thread — their *legs* fan
        out to the ambient fabric (a daemonic fabric worker cannot fork race
        legs of its own).
        """
        from repro.engine.supervisor import get_fabric

        fabric = get_fabric()
        if fabric is None or request.engine in STRATEGY_ENGINES:
            return self.solver.solve_request(request)
        return fabric.solve(request)


class ApiRequestHandler(BaseHTTPRequestHandler):
    """Routes: POST /solve, GET /engines, GET /healthz."""

    server: ApiServer

    # Keep request logging off the server's stderr; the CLI prints one
    # banner line and the service is otherwise silent.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/healthz":
            from repro.engine.supervisor import get_breakers, get_fabric

            payload: Dict[str, Any] = {
                "status": "ok",
                "schema_version": SCHEMA_VERSION,
                "engines": self.server.solver.available_engines(),
                "breakers": get_breakers().snapshot(),
                "inflight": self.server.inflight,
                "max_inflight": self.server.max_inflight,
            }
            fabric = get_fabric()
            if fabric is not None:
                payload["fabric"] = {
                    "workers": fabric.size,
                    "worker_pids": fabric.worker_pids(),
                    "busy_pids": fabric.busy_pids(),
                    "stats": fabric.stats.snapshot(),
                }
            store = get_result_store()
            if store is not None:
                payload["store"] = store.snapshot()
            self._send_json(200, payload)
        elif self.path == "/engines":
            self._send_json(
                200,
                {
                    "schema_version": SCHEMA_VERSION,
                    "engines": self.server.solver.available_engines(),
                },
            )
        else:
            self._send_json(404, {"error": f"no such resource: {self.path}"})

    def _read_request(self) -> Optional[SolveRequest]:
        """Parse the body into a request, or reply with the error and None."""
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            self._send_json(
                413, {"error": "a Content-Length header and body are required"}
            )
            return None
        try:
            length = int(raw_length)
        except ValueError:
            self._send_json(400, {"error": "invalid Content-Length"})
            return None
        if length <= 0:
            self._send_json(413, {"error": "a request body is required"})
            return None
        if length > self.server.max_request_bytes:
            self._send_json(
                413,
                {
                    "error": (
                        f"request body of {length} bytes exceeds the "
                        f"{self.server.max_request_bytes}-byte bound"
                    )
                },
            )
            return None
        body = self.rfile.read(length)
        try:
            payload = json.loads(body.decode("utf-8"))
            return SolveRequest.from_json(payload)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self._send_json(400, {"error": f"request body is not JSON: {error}"})
            return None
        except (WireFormatError, TypeError) as error:
            self._send_json(400, {"error": str(error)})
            return None

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path != "/solve":
            self._send_json(404, {"error": f"no such resource: {self.path}"})
            return
        request = self._read_request()
        if request is None:
            return
        from repro.engine.results import request_fingerprint
        from repro.testing.faults import faults_armed

        prepared = self.server.solver.prepare(request)
        fingerprint = request_fingerprint(prepared.to_json())
        # The persistent tier answers before admission control: a store hit
        # costs one SQLite read, so it never occupies a solve slot and is
        # never refused with 503 + Retry-After.  Fault-tagged requests skip
        # the store in both directions (chaos must neither serve from nor
        # poison it).
        store = get_result_store()
        if store is not None and faults_armed(prepared.tags):
            store.note_bypass()
            store = None
        if store is not None:
            cached = store.get(fingerprint, prepared.engine)
            if cached is not None:
                payload = dict(cached)
                payload["solver_stats"] = {
                    **(payload.get("solver_stats") or {}),
                    "store_hits": 1,
                }
                self._send_json(200, payload)
                return
        if not self.server.try_admit():
            self._send_json(
                503,
                {
                    "error": (
                        f"server saturated: {self.server.max_inflight} "
                        "requests already in flight"
                    )
                },
                headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
            return
        try:
            payload = self._solve_deduplicated(prepared, fingerprint, store)
        except Exception as error:  # noqa: BLE001 — never drop the connection
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
            return
        finally:
            self.server.readmit()
        self._send_json(200, payload)

    def _solve_deduplicated(
        self,
        prepared: SolveRequest,
        fingerprint: str,
        store: Optional[ResultStore],
    ) -> Dict[str, Any]:
        from repro.engine.store import pristine_response, response_cacheable
        from repro.engine.supervisor import hard_guard

        entry, leader = self.server.claim(fingerprint)
        if leader:
            try:
                entry.payload = self.server.execute(prepared).to_json()
            finally:
                self.server.settle(fingerprint, entry)
            # The leader records the definitive outcome (stripped of the
            # markers it accrued in transit) for every later process.
            if store is not None and response_cacheable(entry.payload):
                store.put(
                    fingerprint, prepared.engine, pristine_response(entry.payload)
                )
            return dict(entry.payload)
        # A byte-identical request is already solving: ride along.  The
        # leader's own hard guard bounds the wait; ours (plus slack for the
        # leader's retries) is the safety net if it somehow vanishes.
        guard = hard_guard(prepared.timeout_seconds)
        entry.event.wait(None if guard is None else guard * 2.0)
        if entry.payload is None:
            # Leader failed before publishing (500 on its side): solve alone.
            return self.server.execute(prepared).to_json()
        payload = dict(entry.payload)
        payload["details"] = {**(payload.get("details") or {}), "deduplicated": True}
        return payload


def make_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    solver: Optional[Solver] = None,
    *,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
) -> ApiServer:
    """Build (but do not start) the HTTP server; ``port=0`` picks a free one."""
    return ApiServer(
        (host, port),
        solver,
        max_inflight=max_inflight,
        max_request_bytes=max_request_bytes,
    )


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    solver: Optional[Solver] = None,
    *,
    workers: Optional[int] = None,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    store: Optional[str] = None,
) -> int:
    """Run the JSON endpoint until interrupted (the ``serve`` subcommand).

    Installs the ambient solve fabric first: ``workers`` pre-warmed
    supervised worker processes (``None`` = the
    :func:`~repro.engine.supervisor.default_worker_count`; ``0`` disables
    the fabric and solves in handler threads/processes as before), with the
    liveness heartbeat running.  The fabric is shut down on exit.

    ``store`` names the persistent result store file; it is exported as
    :data:`~repro.engine.store.STORE_ENV` *before* the fabric spawns so
    worker processes (fork and spawn contexts alike) inherit it and write
    their engine-tier entries into the same file the HTTP tier reads.
    """
    from repro.engine.supervisor import Supervisor, install_fabric, shutdown_fabric

    if store is not None:
        os.environ[STORE_ENV] = str(store)
    store_path = os.environ.get(STORE_ENV)
    supervisor: Optional[Supervisor] = None
    if workers is None or workers > 0:
        supervisor = Supervisor(workers, warm=True, name="serve")
        supervisor.start_heartbeat()
        install_fabric(supervisor)
    server = make_server(
        host,
        port,
        solver,
        max_inflight=max_inflight,
        max_request_bytes=max_request_bytes,
    )
    bound_host, bound_port = server.server_address[0], server.server_address[1]
    fabric_note = (
        f"fabric: {supervisor.size} pre-warmed workers"
        if supervisor is not None
        else "fabric: disabled"
    )
    store_note = f"store: {store_path}" if store_path else "store: disabled"
    print(
        f"repro-nay serving on http://{bound_host}:{bound_port} "
        f"(POST /solve, GET /engines, GET /healthz; schema v{SCHEMA_VERSION}; "
        f"{fabric_note}; {store_note})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        shutdown_fabric()
    return 0
