"""Robustness posture of the HTTP service (:mod:`repro.api.service`).

Request-size bounds (413) and the socket timeout, a client that hangs up
before its reply, admission control (503 + ``Retry-After``), in-flight dedup, the breaker/fabric surface on
``/healthz``, the serve smoke that kills a fabric worker mid-request,
``repro-nay serve --store`` stopped by SIGTERM, the persistent result
store tier (instant hits, monotone counters, saturation immunity, one row
per served answer), and ``path`` requests the store cannot key.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api.facade import Solver
from repro.api.service import REQUEST_TIMEOUT_SECONDS, ApiRequestHandler, make_server
from repro.api.wire import SCHEMA_VERSION, SolveResponse
from repro.engine.results import request_fingerprint
from repro.engine.store import (
    STORE_ENV,
    ResultStore,
    install_result_store,
    pristine_response,
)
from repro.engine.supervisor import (
    BreakerBoard,
    RetryPolicy,
    Supervisor,
    get_breakers,
    install_fabric,
    shutdown_fabric,
)
from repro.suites import get_benchmark
from repro.sygus import print_sygus
from repro.testing.faults import reset_fault_state

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _isolate_global_state(monkeypatch):
    monkeypatch.delenv("REPRO_NAY_FAULTS", raising=False)
    monkeypatch.delenv(STORE_ENV, raising=False)
    previous_store = install_result_store(None)
    get_breakers().reset()
    reset_fault_state()
    yield
    install_result_store(previous_store)
    get_breakers().reset()
    reset_fault_state()


def _run(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def api_server():
    server = make_server(port=0, solver=Solver(timeout_seconds=60.0))
    thread = _run(server)
    try:
        yield server
    finally:
        _stop(server, thread)


def _post_raw(server, body=None, headers=None, path="/solve"):
    """POST over a raw connection so absent/forged headers are possible."""
    host, port = server.server_address[0], server.server_address[1]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.putrequest("POST", path)
        for name, value in (headers or {}).items():
            conn.putheader(name, value)
        conn.endheaders()
        if body:
            conn.send(body)
        reply = conn.getresponse()
        return reply.status, dict(reply.getheaders()), json.loads(reply.read())
    finally:
        conn.close()


def _post(server, payload):
    data = json.dumps(payload).encode("utf-8")
    return _post_raw(
        server, data, {"Content-Length": str(len(data))}
    )


class TestRequestBounds:
    def test_missing_body_is_413(self, api_server):
        status, _, payload = _post_raw(api_server)
        assert status == 413
        assert "Content-Length" in payload["error"]

    def test_zero_length_body_is_413(self, api_server):
        status, _, payload = _post_raw(api_server, headers={"Content-Length": "0"})
        assert status == 413
        assert "body is required" in payload["error"]

    def test_oversized_body_is_413(self):
        server = make_server(
            port=0, solver=Solver(timeout_seconds=60.0), max_request_bytes=64
        )
        thread = _run(server)
        try:
            body = json.dumps(
                {"benchmark": "plane1", "engine": "naySL", "padding": "x" * 200}
            ).encode("utf-8")
            status, _, payload = _post_raw(
                server, body, {"Content-Length": str(len(body))}
            )
            assert status == 413
            assert "64-byte bound" in payload["error"]
        finally:
            _stop(server, thread)

    def test_invalid_content_length_is_400(self, api_server):
        status, _, payload = _post_raw(
            api_server, b"{}", {"Content-Length": "banana"}
        )
        assert status == 400

    def test_malformed_json_is_400(self, api_server):
        status, _, payload = _post_raw(
            api_server, b"not json", {"Content-Length": "8"}
        )
        assert status == 400
        assert "not JSON" in payload["error"]

    @pytest.mark.parametrize(
        "sent",
        [
            b"",
            b"POST /solve HTTP/1.0\r\nContent-Len",
            b'POST /solve HTTP/1.0\r\nContent-Length: 100\r\n\r\n{"ben',
        ],
        ids=["request-line", "headers", "body"],
    )
    def test_stalled_client_is_dropped_after_the_socket_timeout(
        self, sent, monkeypatch
    ):
        # A client that stalls before its request line, inside its headers
        # or 5 bytes into a promised 100-byte body must not pin its handler
        # thread until it hangs up.
        assert ApiRequestHandler.timeout == REQUEST_TIMEOUT_SECONDS
        monkeypatch.setattr(ApiRequestHandler, "timeout", 0.5)
        server = make_server(port=0, solver=Solver(timeout_seconds=60.0))
        thread = _run(server)
        try:
            with socket.create_connection(server.server_address, timeout=10) as client:
                client.sendall(sent)
                assert client.recv(1024) == b""  # hung up, not blocked
            status, _, _ = _post_raw(server)
            assert status == 413
        finally:
            _stop(server, thread)


class TestClientHangup:
    def test_client_gone_before_its_reply_is_dropped_quietly(
        self, monkeypatch, capsys
    ):
        received, hung_up = threading.Event(), threading.Event()
        answer = ApiRequestHandler._answer

        def answer_after_hangup(handler, request):
            received.set()
            hung_up.wait(10)
            return answer(handler, request)

        monkeypatch.setattr(ApiRequestHandler, "_answer", answer_after_hangup)
        server = make_server(port=0, solver=Solver(timeout_seconds=60.0))
        thread = _run(server)
        request = {"benchmark": "plane1", "engine": "naySL"}
        try:
            body = json.dumps(request).encode("utf-8")
            with socket.create_connection(server.server_address, timeout=10) as client:
                client.sendall(
                    b"POST /solve HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                    % (len(body), body)
                )
                assert received.wait(10)
                # Linger 0: the close resets the connection, so the reply's
                # write fails.
                client.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            hung_up.set()
            status, _, payload = _post(server, request)
            assert status == 200
            assert payload["verdict"] == "unrealizable"
        finally:
            _stop(server, thread)  # joins the handler threads
        assert "Exception occurred" not in capsys.readouterr().err


class TestAdmissionControl:
    def test_saturated_server_refuses_with_retry_after(self):
        # max_inflight floors at 1; hold that one slot with a slow request
        # so a concurrent probe is refused immediately.
        server = make_server(
            port=0, solver=Solver(timeout_seconds=60.0), max_inflight=1
        )
        thread = _run(server)
        try:
            holder = {}
            slow = threading.Thread(
                target=lambda: holder.update(
                    slow=_post(
                        server,
                        {
                            "benchmark": "plane1",
                            "engine": "naySL",
                            "tags": {"faults": "slow@*:1.0"},
                        },
                    )
                )
            )
            slow.start()
            deadline = time.monotonic() + 5.0
            refused = None
            while refused is None and time.monotonic() < deadline:
                if server.inflight < 1:
                    time.sleep(0.01)
                    continue
                status, headers, payload = _post(
                    server, {"benchmark": "plane1", "engine": "naySL"}
                )
                if status == 503:
                    refused = (status, headers, payload)
                # else: the leader finished between the inflight check and
                # the probe — loop and try again while it is still solving
            slow.join(timeout=30.0)
            assert refused is not None, "server never reported an inflight request"
            status, headers, payload = refused
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert "saturated" in payload["error"]
            # The slow leader still completed normally.
            slow_status, _, slow_payload = holder["slow"]
            assert slow_status == 200
            assert SolveResponse.from_json(slow_payload).verdict == "unrealizable"
        finally:
            _stop(server, thread)


class TestDedup:
    def test_identical_inflight_requests_share_one_execution(self, api_server):
        # Two byte-identical slow requests fired together: the follower gets
        # the leader's response, marked deduplicated.
        payload = {
            "benchmark": "plane1",
            "engine": "naySL",
            "tags": {"faults": "slow@*:0.6"},
        }
        results = [None, None]

        def fire(slot):
            results[slot] = _post(api_server, payload)

        threads = [threading.Thread(target=fire, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        responses = [SolveResponse.from_json(body) for _, _, body in results]
        assert all(r.verdict == "unrealizable" for r in responses)
        deduplicated = [r for r in responses if r.details.get("deduplicated")]
        assert len(deduplicated) == 1

    def test_fault_tags_dedup_against_the_clean_twin(self):
        """Regression for the semantic-tag allowlist: fault plans are
        operational metadata, so the chaos twin shares the clean request's
        fingerprint — one solve serves both."""
        clean = {"benchmark": "plane1", "engine": "naySL"}
        faulted = {**clean, "tags": {"faults": "error@*"}}
        assert request_fingerprint(clean) == request_fingerprint(faulted)

    def test_semantic_tags_still_split_fingerprints(self):
        clean = {"benchmark": "plane1", "engine": "naySL"}
        pruned = {**clean, "tags": {"prune": "reduce"}}
        assert request_fingerprint(clean) != request_fingerprint(pruned)

    def test_store_still_refuses_fault_injected_payloads(self, tmp_path):
        """The twin fingerprints match, but the other half of the contract
        holds too: a response carrying fault evidence never enters the
        persistent store, so dedup-by-fingerprint cannot poison it."""
        from repro.engine.store import response_cacheable

        store = ResultStore(tmp_path / "s.sqlite")
        fingerprint = request_fingerprint({"benchmark": "plane1", "engine": "naySL"})
        poisoned = {
            "verdict": "unrealizable",
            "engine": "naySL",
            "solver_stats": {"faults_injected": 1},
        }
        assert not response_cacheable(poisoned)
        assert store.put(fingerprint, "naySL", poisoned) == (False, 0)
        assert store.get(fingerprint, "naySL") is None


class TestHealthz:
    def test_healthz_reports_breakers_and_admission(self, api_server):
        host, port = api_server.server_address[0], api_server.server_address[1]
        with urllib.request.urlopen(
            f"http://{host}:{port}/healthz", timeout=30
        ) as reply:
            payload = json.load(reply)
        assert payload["status"] == "ok"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["breakers"] == {}  # board reset by the fixture
        assert payload["inflight"] == 0
        assert payload["max_inflight"] == api_server.max_inflight
        assert "fabric" not in payload  # no fabric installed here


class TestPersistentStoreTier:
    def _healthz(self, server):
        host, port = server.server_address[0], server.server_address[1]
        with urllib.request.urlopen(
            f"http://{host}:{port}/healthz", timeout=30
        ) as reply:
            return json.load(reply)

    def test_threaded_stress_mixed_stream(self, tmp_path, monkeypatch):
        """The acceptance stress leg: concurrent clients over a duplicate +
        unique mix — every response schema-valid, store hits monotone, and
        ``/healthz`` surfaces the store counters."""
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "serve.sqlite"))
        server = make_server(
            port=0, solver=Solver(timeout_seconds=60.0), max_inflight=64
        )
        thread = _run(server)
        try:
            # 4 repeated benchmarks x 4 clients + 8 unique-by-seed requests.
            repeats = ["plane1", "guard1", "plane2", "guard2"]
            stream = [
                {"benchmark": name, "engine": "naySL", "kind": "check"}
                for name in repeats * 4
            ] + [
                {"benchmark": "plane1", "engine": "naySL", "seed": 100 + index}
                for index in range(8)
            ]
            results = [None] * len(stream)
            hits_after_wave = []

            def fire(slot):
                results[slot] = _post(server, stream[slot])

            # Two waves so the second wave's repeats must hit the store.
            for wave, chunk in enumerate((range(0, 12), range(12, len(stream)))):
                threads = [
                    threading.Thread(target=fire, args=(slot,)) for slot in chunk
                ]
                for worker in threads:
                    worker.start()
                for worker in threads:
                    worker.join(timeout=120.0)
                hits_after_wave.append(self._healthz(server)["store"]["hits"])

            responses = []
            for status, _, body in results:
                assert status == 200
                responses.append(SolveResponse.from_json(body))
            assert all(r.verdict == "unrealizable" for r in responses)
            # Store hits never decrease across waves and the second wave,
            # full of already-solved fingerprints, must have produced some.
            assert hits_after_wave == sorted(hits_after_wave)
            assert hits_after_wave[-1] > 0
            served = [r for r in responses if r.solver_stats.get("store_hits")]
            assert served, "repeat traffic never hit the persistent tier"
            health = self._healthz(server)
            for counter in ("hits", "misses", "stores", "bypasses", "entries"):
                assert counter in health["store"]
            assert health["store"]["entries"] > 0
        finally:
            _stop(server, thread)

    def test_store_hit_answers_under_saturation(self, tmp_path, monkeypatch):
        """A stored request is served 200 while the only admission slot is
        held — the persistent tier answers before ``try_admit``, so warm
        traffic never sees 503 + ``Retry-After``."""
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "serve.sqlite"))
        server = make_server(
            port=0, solver=Solver(timeout_seconds=60.0), max_inflight=1
        )
        thread = _run(server)
        try:
            warm = {"benchmark": "guard1", "engine": "naySL", "kind": "check"}
            status, _, body = _post(server, warm)  # primes the store
            assert status == 200
            holder = {}
            slow = threading.Thread(
                target=lambda: holder.update(
                    slow=_post(
                        server,
                        {
                            "benchmark": "plane1",
                            "engine": "naySL",
                            "tags": {"faults": "slow@*:1.0"},
                        },
                    )
                )
            )
            slow.start()
            deadline = time.monotonic() + 5.0
            while server.inflight < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.inflight >= 1, "slow holder never occupied the slot"
            status, headers, body = _post(server, warm)
            assert status == 200
            assert "Retry-After" not in headers
            response = SolveResponse.from_json(body)
            assert response.verdict == "unrealizable"
            assert response.solver_stats.get("store_hits") == 1
            slow.join(timeout=30.0)
            assert holder["slow"][0] == 200
        finally:
            _stop(server, thread)


class TestServeWithFabric:
    def test_worker_killed_mid_request_still_answers_schema_valid(self):
        """Acceptance: the serve smoke — kill -9 a fabric worker while it
        solves; the HTTP reply must still be a well-formed 200 response."""
        fabric = Supervisor(
            2,
            warm=False,
            breakers=BreakerBoard(threshold=100),
            retry=RetryPolicy(max_attempts=3, base_delay_seconds=0.01),
            name="t-serve",
        )
        install_fabric(fabric)
        server = make_server(port=0, solver=Solver(timeout_seconds=60.0))
        thread = _run(server)
        try:
            holder = {}
            poster = threading.Thread(
                target=lambda: holder.update(
                    result=_post(
                        server,
                        {
                            "benchmark": "plane1",
                            "engine": "naySL",
                            "tags": {"faults": "slow@*:1.0"},
                        },
                    )
                )
            )
            poster.start()
            killed = None
            deadline = time.monotonic() + 5.0
            while killed is None and time.monotonic() < deadline:
                busy = fabric.busy_pids()
                if busy:
                    killed = busy[0]
                    os.kill(killed, signal.SIGKILL)
                else:
                    time.sleep(0.02)
            assert killed is not None, "fabric worker never became busy"
            poster.join(timeout=60.0)
            status, _, payload = holder["result"]
            assert status == 200
            response = SolveResponse.from_json(payload)
            assert response.verdict == "unrealizable"
            assert response.solver_stats["retries"] >= 1
            assert response.solver_stats["workers_replaced"] >= 1
            # Health reflects the healed pool: two live workers again.
            host, port = server.server_address[0], server.server_address[1]
            with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=30
            ) as reply:
                health = json.load(reply)
            assert health["fabric"]["workers"] == 2
            assert len(health["fabric"]["worker_pids"]) == 2
            assert killed not in health["fabric"]["worker_pids"]
            assert health["fabric"]["stats"]["workers_replaced"] >= 1
        finally:
            _stop(server, thread)
            shutdown_fabric()

    def test_worker_killed_mid_stream_store_keeps_serving(
        self, tmp_path, monkeypatch
    ):
        """Kill -9 a fabric worker in the middle of a mixed request stream
        backed by the persistent store: every reply still lands schema-valid
        and the repeats keep hitting the store through the disruption."""
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "serve.sqlite"))
        fabric = Supervisor(
            2,
            warm=False,
            breakers=BreakerBoard(threshold=100),
            retry=RetryPolicy(max_attempts=3, base_delay_seconds=0.01),
            name="t-serve-store",
        )
        install_fabric(fabric)
        server = make_server(port=0, solver=Solver(timeout_seconds=60.0))
        thread = _run(server)
        try:
            warm = {"benchmark": "plane1", "engine": "naySL", "kind": "check"}
            assert _post(server, warm)[0] == 200  # primes the store
            stream = [
                warm,
                {"benchmark": "guard1", "engine": "naySL", "kind": "check"},
                warm,
                {"benchmark": "plane2", "engine": "naySL", "kind": "check"},
                warm,
            ]
            results = [None] * len(stream)

            def fire(slot):
                results[slot] = _post(server, stream[slot])

            # A slow chaos request occupies a worker so there is a mid-solve
            # window to kill it in while the stream is in flight.
            holder = {}
            slow = threading.Thread(
                target=lambda: holder.update(
                    slow=_post(
                        server,
                        {
                            "benchmark": "guard2",
                            "engine": "naySL",
                            "tags": {"faults": "slow@*:1.0"},
                        },
                    )
                )
            )
            slow.start()
            threads = [
                threading.Thread(target=fire, args=(slot,))
                for slot in range(len(stream))
            ]
            for worker in threads:
                worker.start()
            killed = None
            deadline = time.monotonic() + 5.0
            while killed is None and time.monotonic() < deadline:
                busy = fabric.busy_pids()
                if busy:
                    killed = busy[0]
                    os.kill(killed, signal.SIGKILL)
                else:
                    time.sleep(0.02)
            assert killed is not None, "fabric worker never became busy"
            for worker in threads:
                worker.join(timeout=120.0)
            slow.join(timeout=60.0)
            responses = []
            for status, _, body in results:
                assert status == 200
                responses.append(SolveResponse.from_json(body))
            assert all(r.verdict == "unrealizable" for r in responses)
            # The primed repeats rode the store through the worker loss.
            assert any(r.solver_stats.get("store_hits") for r in responses)
            assert holder["slow"][0] == 200
        finally:
            _stop(server, thread)
            shutdown_fabric()

    def test_sigterm_stops_the_fabric_workers(self, tmp_path):
        """``repro-nay serve --store`` ended with SIGTERM takes its idle
        fabric workers with it, as it does on SIGINT, and closes its store:
        the WAL is checkpointed into the file and the served row is there."""

        def alive(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            return True

        store = tmp_path / "serve.sqlite"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--store", str(store)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        worker_pids = []
        try:
            banner = server.stdout.readline()
            port = int(re.search(r"http://[^:]+:(\d+)", banner).group(1))
            base = f"http://127.0.0.1:{port}"
            with urllib.request.urlopen(base + "/healthz", timeout=30) as reply:
                worker_pids = json.load(reply)["fabric"]["worker_pids"]
            assert worker_pids
            body = json.dumps({"benchmark": "plane1", "engine": "naySL"}).encode()

            def post():
                with urllib.request.urlopen(base + "/solve", body, timeout=60) as reply:
                    return json.load(reply)

            solved, replayed = post(), post()
            assert solved["schema_version"] == SCHEMA_VERSION
            assert solved["verdict"] == "unrealizable" and solved["certificate"]
            assert replayed["solver_stats"].get("store_hits") == 1, replayed
            assert pristine_response(replayed) == pristine_response(solved)
            server.terminate()
            server.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while any(map(alive, worker_pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(alive, worker_pids)), worker_pids
            assert not os.path.exists(f"{store}-wal")
            assert ResultStore(store).snapshot()["entries"] == 1
        finally:
            server.kill()
            server.wait(timeout=30)
            server.stdout.close()
            for pid in filter(alive, worker_pids):
                os.kill(pid, signal.SIGKILL)


class TestStoreDoor:
    def test_cold_served_answer_is_one_row(self, tmp_path, monkeypatch):
        """A definitive cold ``POST /solve`` solved on a 1-worker fabric
        writes exactly one row: the handler records it, the worker writes
        nothing even with ``REPRO_NAY_STORE`` in its environment."""
        store_path = tmp_path / "serve.sqlite"
        monkeypatch.setenv(STORE_ENV, str(store_path))
        install_fabric(Supervisor(1, warm=False, name="store-one-row"))
        server = make_server(port=0, solver=Solver(timeout_seconds=60.0))
        thread = _run(server)
        try:
            status, _, body = _post(
                server, {"benchmark": "plane1", "engine": "naySL", "kind": "check"}
            )
        finally:
            _stop(server, thread)
            shutdown_fabric()
        assert status == 200
        response = SolveResponse.from_json(body)
        assert response.verdict == "unrealizable"
        assert response.solver_stats.get("store_misses") == 1
        assert response.solver_stats.get("store_stores") == 1
        witness = ResultStore(store_path)
        assert witness.snapshot()["entries"] == 1
        assert witness.stores_recorded() == 1


class TestHostilePaths:
    """A ``path`` the store cannot key gets a well-formed reply, bypasses
    the store, and is never opened by the handler."""

    @pytest.mark.parametrize("kind", ["int", "nul", "directory"])
    def test_unkeyable_path_gets_an_error_reply(self, api_server, tmp_path, kind):
        store = ResultStore(tmp_path / "serve.sqlite")
        install_result_store(store)
        path = {"int": 1, "nul": "bad\x00name.sl", "directory": str(tmp_path)}[kind]
        status, _, body = _post(api_server, {"path": path, "engine": "naySL"})
        assert status == 200
        response = SolveResponse.from_json(body)
        assert response.verdict == "error"
        assert response.solver_stats.get("store_bypasses") == 1
        assert store.snapshot()["entries"] == 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_fifo_path_is_read_by_the_solve_alone(self, api_server, tmp_path):
        """Keying a FIFO would drain it (or block without a writer) before
        the solve reads it; the handler leaves it to the solve."""
        store = ResultStore(tmp_path / "serve.sqlite")
        install_result_store(store)
        fifo = tmp_path / "problem.sl"
        os.mkfifo(fifo)
        text = print_sygus(get_benchmark("plane1").problem)

        def feed():
            try:
                with open(fifo, "w", encoding="utf-8") as pipe:
                    pipe.write(text)
            except OSError:
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            status, _, body = _post(api_server, {"path": str(fifo), "engine": "naySL"})
        finally:
            # Release whichever end is still blocked on the FIFO.
            for flags in (os.O_RDONLY, os.O_WRONLY):
                try:
                    os.close(os.open(fifo, flags | os.O_NONBLOCK))
                except OSError:
                    pass
            writer.join(timeout=5)
        assert status == 200
        response = SolveResponse.from_json(body)
        assert response.verdict == "unrealizable"
        assert response.solver_stats.get("store_bypasses") == 1
        assert store.snapshot()["entries"] == 0
