"""One fresh process that sets a workload up, then (in ``run`` mode) times it.

``run.py`` starts this file several times per benchmark run.  Protocol on
standard output: ``READY`` once set-up is done (the parent times set-up from
spawn to that line), then, in ``run`` mode, one ``RESULT <json>`` line.

In-process workloads call :class:`repro.api.Solver`; serve workloads start
``python -m repro.cli serve`` (the ``repro-nay serve`` entry point) as a
subprocess and drive it over HTTP with one connection at a time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

CHECK_ENGINES = ("nayInt", "nayFin", "nayHorn", "naySL", "nope")
CEGIS_ENGINES = ("naySL", "nayHorn")
DEFINITIVE = ("realizable", "unrealizable")

# Counters that do not depend on op order.  The solver counters (sat checks,
# pivots, lemma hits, ...) depend on what earlier ops left in the process-wide
# caches and lemma store, so the seed, which orders the ops, moves them by a
# few; they are reported as per-layer counts, not digested.
DIGEST_COUNTERS = (
    "certificate_checked",
    "certificate_size",
    "enumerator_candidates_deduped",
)


def load_json(name: str) -> Any:
    with open(os.path.join(HERE, name), encoding="utf-8") as handle:
        return json.load(handle)


def host_loop_ms() -> float:
    """A fixed pure-Python loop, the median of five timings: a host-speed
    diagnostic, never a scale."""
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for index in range(300_000):
            total += index * index % 7
        timings.append((time.perf_counter() - start) * 1000.0)
    return sorted(timings)[2]


def peak_rss_mb(pid: str = "self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for {pid}")


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------


def shuffled(items: List[Any], seed: int) -> List[Any]:
    """The workload seed's order of ``items`` (the only use of the seed)."""
    ordered = list(items)
    random.Random(seed).shuffle(ordered)
    return ordered


# ---------------------------------------------------------------------------
# Output checks (outside the timed phase)
# ---------------------------------------------------------------------------


class Checker:
    """Runs the output checks; each op gets a list of failure reasons."""

    def __init__(self, golden: Dict[str, Dict[str, Any]]):
        from repro.analysis import check_certificate
        from repro.api import Solver

        self.golden = golden
        self.check_certificate = check_certificate
        self.solver = Solver()
        self._certificates: Dict[str, bool] = {}
        # Builders ship no certificate when they cannot make one the checker
        # accepts; such verdicts are listed, not failed (nothing to re-check).
        self.uncertified: List[str] = []

    def certificate_ok(self, problem, certificate) -> bool:
        # A certificate is re-checked once per distinct payload: the checker
        # is deterministic, so identical payloads get identical answers.
        key = hashlib.sha256(
            json.dumps([problem.name, certificate], sort_keys=True).encode()
        ).hexdigest()
        if key not in self._certificates:
            result = self.check_certificate(problem, certificate)
            self._certificates[key] = bool(result)
        return self._certificates[key]

    def response(self, op: str, response, problem, *, witness_naysl: bool) -> List[str]:
        reasons = []
        expected = self.golden.get(op)
        if expected is None:
            reasons.append("op missing from the golden table")
        elif response.verdict != expected["verdict"]:
            reasons.append(f"verdict {response.verdict} != golden {expected['verdict']}")
        if response.verdict == "unrealizable":
            if response.certificate is None:
                self.uncertified.append(op)
            elif not self.certificate_ok(problem, response.certificate):
                reasons.append("certificate rejected by check_certificate")
        if response.verdict == "realizable" and response.kind == "solve":
            if not self.solver.verify(response, problem):
                reasons.append("solution rejected by Solver.verify")
        if witness_naysl and response.verdict != "unrealizable":
            reasons.append("naySL check on a witness set is not unrealizable")
        return reasons


def digest(workload: str, rows: List[Tuple[str, str, int]], counters: Dict[str, int]) -> str:
    lines = [f"{workload}|{op}|{verdict}|{iterations}" for op, verdict, iterations in sorted(rows)]
    lines += [f"{key}={counters.get(key, 0)}" for key in DIGEST_COUNTERS]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def add_counters(total: Dict[str, int], stats: Dict[str, Any]) -> None:
    for key, value in (stats or {}).items():
        if isinstance(value, int) and not isinstance(value, bool):
            total[key] = total.get(key, 0) + value


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def setup_in_process(workload: str, seed: int, spec: Dict[str, Any]):
    from repro.api import Solver
    from repro.suites import all_benchmarks, benchmark_examples

    benchmarks = all_benchmarks(include_scaling=True)
    ops = []
    if workload == "check-suite":
        solvers = {engine: Solver(engine) for engine in CHECK_ENGINES}
        # Benchmark-major, as ``experiments._table_tasks`` orders cells: the
        # engines of one benchmark run back to back and share its grammar's
        # cache entries.
        for benchmark in shuffled(benchmarks, seed):
            examples = benchmark_examples(benchmark)
            # The 84 evaluation witness sets must be refuted by naySL; the
            # scaling suite's one-example sets are not witnesses (chain_3 is
            # realizable on its example).
            witness = benchmark.witness_examples is not None and benchmark.suite != "Scaling"
            for engine in CHECK_ENGINES:
                key = f"{benchmark.suite}/{benchmark.name}/{engine}"
                call = (lambda s=solvers[engine], b=benchmark, e=examples: s.check(b, e))
                ops.append((key, call, benchmark, witness and engine == "naySL"))
    else:
        by_key = {f"{b.suite}/{b.name}": b for b in benchmarks}
        solvers = {engine: Solver(engine) for engine in CEGIS_ENGINES}
        for benchmark in shuffled([by_key[key] for key in spec["slate"]], seed):
            for engine in CEGIS_ENGINES:
                key = f"{benchmark.suite}/{benchmark.name}/{engine}/solve"
                call = (lambda s=solvers[engine], b=benchmark: s.solve(b, kind="solve", seed=0))
                ops.append((key, call, benchmark, False))
    return ops


def run_in_process(ops, tracer) -> Dict[str, Any]:
    responses = []
    latencies = []
    before = host_loop_ms()
    started = time.perf_counter()
    for index, (_key, call, _benchmark, _witness) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        op_start = time.perf_counter()
        response = call()
        latencies.append(time.perf_counter() - op_start)
        responses.append(response)
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.op = None
    rss = peak_rss_mb()
    after = host_loop_ms()
    return {
        "responses": responses,
        "latencies": latencies,
        "wall_s": wall,
        "peak_rss_mb": rss,
        "host_loop_ms": [before, after],
    }


def check_in_process(ops, timed, checker: Checker) -> Dict[str, Any]:
    rows, counters, failures = [], {}, {}
    decided = ok = 0
    for (key, _call, benchmark, witness), response in zip(ops, timed["responses"]):
        rows.append((key, response.verdict, response.iterations))
        add_counters(counters, response.solver_stats)
        decided += response.verdict in DEFINITIVE
        reasons = checker.response(key, response, benchmark.problem, witness_naysl=witness)
        if reasons:
            failures[key] = reasons
        else:
            ok += 1
    return {
        "rows": rows,
        "counters": counters,
        "work": counters,
        "failures": failures,
        "decided": decided,
        "ok": ok,
    }


def in_process_layer_stats() -> Dict[str, float]:
    from repro.domains.semilinear import semilinear_cache_stats
    from repro.engine.cache import cache_stats

    def ratio(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    gfa = cache_stats()
    simplify = semilinear_cache_stats()["simplify"]
    return {
        "engine.cache.normalize_hit_ratio": ratio(gfa.normalize_hits, gfa.normalize_misses),
        "engine.cache.equations_hit_ratio": ratio(gfa.equations_hits, gfa.equations_misses),
        "domains.semilinear.memo_hit_ratio": ratio(
            simplify.get("hits", 0), simplify.get("misses", 0)
        ),
    }


# ---------------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------------


class Server:
    """``repro-nay serve --workers 1`` on a fresh store file, as a subprocess."""

    def __init__(self, store: str, spans: Optional[str]):
        self.store = store
        self.worker_pids: List[int] = []
        command = [sys.executable]
        if spans is not None:
            command += [os.path.join(HERE, "serve_traced.py"), "--spans", spans]
        else:
            command += ["-m", "repro.cli"]
        command += ["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "1", "--store", store]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        banner = self.process.stdout.readline()
        marker = "http://127.0.0.1:"
        if marker not in banner:
            self.stop()
            raise RuntimeError(f"serve did not start: {banner!r}")
        self.port = int(banner.split(marker, 1)[1].split()[0].rstrip("/"))

    def get(self, path: str) -> Dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            connection.request("GET", path)
            reply = connection.getresponse()
            body = reply.read()
        finally:
            connection.close()
        if reply.status != 200:
            raise RuntimeError(f"GET {path} -> {reply.status}")
        return json.loads(body)

    def post(self, payload: bytes, op: int) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            connection.request(
                "POST",
                "/solve",
                payload,
                {"Content-Type": "application/json", "X-Bench-Op": str(op)},
            )
            reply = connection.getresponse()
            return reply.status, reply.read()
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        total = peak_rss_mb(str(self.process.pid))
        for pid in self.worker_pids:
            total += peak_rss_mb(str(pid))
        return total

    def stop(self) -> None:
        """SIGINT runs serve's shutdown path, which stops the fabric worker."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        for pid in self.worker_pids:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and _alive(pid):
                time.sleep(0.05)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        for suffix in ("", "-wal", "-shm", "-journal"):
            try:
                os.remove(self.store + suffix)
            except FileNotFoundError:
                pass


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return handle.read().split(") ", 1)[1][0] != "Z"


def request_bytes(name: str, suite: str, seed: int) -> bytes:
    payload = {"benchmark": name, "suite": suite, "engine": "naySL", "kind": "check", "seed": seed}
    return json.dumps(payload, sort_keys=True).encode()


def setup_serve(workload: str, seed: int, spec: Dict[str, Any], spans: Optional[str]):
    """Start the server, wait for /healthz, warm up (and fill the store)."""
    from repro.api.wire import SolveResponse
    from repro.suites import all_benchmarks

    benchmarks = {f"{b.suite}/{b.name}": b for b in all_benchmarks(include_scaling=True)}
    slate = [benchmarks[key] for key in shuffled(spec["slate"], seed)]
    ops = []
    for _ in range(spec["rounds"]):
        for benchmark in slate:
            # serve-warm repeats one request seed so every request hits the
            # store; serve-cold gives each request its own seed: a distinct
            # fingerprint with the same solve cost, so every request misses.
            request_seed = seed if workload == "serve-warm" else seed * 1_000_000 + len(ops) + 1
            payload = request_bytes(benchmark.name, benchmark.suite, request_seed)
            ops.append((f"{benchmark.suite}/{benchmark.name}/naySL", payload, benchmark))
    os.makedirs(OUT, exist_ok=True)
    server = Server(os.path.join(OUT, f"store-{os.getpid()}.sqlite"), spans)
    try:
        health = server.get("/healthz")
        server.worker_pids = list(health.get("fabric", {}).get("worker_pids", []))
        warm = benchmarks[spec["warmup"]]
        status, body = server.post(request_bytes(warm.name, warm.suite, seed), -1)
        if status != 200 or SolveResponse.from_json(json.loads(body)).verdict not in DEFINITIVE:
            raise RuntimeError("warm-up solve failed")
        if workload == "serve-warm":
            for benchmark in slate:
                status, body = server.post(request_bytes(benchmark.name, benchmark.suite, seed), -1)
                if status != 200:
                    raise RuntimeError(f"store fill of {benchmark.suite}/{benchmark.name} -> {status}")
    except BaseException:
        server.stop()
        raise
    return server, ops


def run_serve(server: Server, ops) -> Dict[str, Any]:
    replies, latencies = [], []
    health_before = server.get("/healthz")
    before = host_loop_ms()
    # The client is the benchmark, not the program: keep its own collector
    # pauses out of the latencies it observes.
    gc.disable()
    started = time.perf_counter()
    try:
        for index, (_key, payload, _benchmark) in enumerate(ops):
            op_start = time.perf_counter()
            replies.append(server.post(payload, index))
            latencies.append(time.perf_counter() - op_start)
        wall = time.perf_counter() - started
    finally:
        gc.enable()
    health = server.get("/healthz")
    rss = server.peak_rss_mb()
    after = host_loop_ms()
    return {
        "replies": replies,
        "latencies": latencies,
        "wall_s": wall,
        "peak_rss_mb": rss,
        "host_loop_ms": [before, after],
        "healthz": (health_before, health),
    }


def check_serve(workload: str, ops, timed, checker: Checker) -> Dict[str, Any]:
    from repro.api.wire import SolveResponse

    rows, counters, work, failures = [], {}, {}, {}
    decided = ok = 0
    for index, ((key, _payload, benchmark), (status, body)) in enumerate(zip(ops, timed["replies"])):
        op = f"{key}#{index}"
        reasons = []
        try:
            response = SolveResponse.from_json(json.loads(body))
        except Exception as error:  # noqa: BLE001 — any malformed reply fails the op
            failures[op] = [f"reply does not parse: {type(error).__name__}: {error}"]
            rows.append((key, "malformed", 0))
            continue
        if status != 200:
            reasons.append(f"HTTP status {status}")
        hit = "store_hits" in (response.solver_stats or {})
        if workload == "serve-warm" and not hit:
            reasons.append("serve-warm reply is not a store hit")
        if workload == "serve-cold" and hit:
            reasons.append("serve-cold reply is a store hit")
        reasons += checker.response(key, response, benchmark.problem, witness_naysl=True)
        # Rows carry the key without the index, so the digest ignores order.
        rows.append((key, response.verdict, response.iterations))
        stats = dict(response.solver_stats or {})
        stats.pop("store_hits", None)
        add_counters(counters, stats)
        # A store hit replays the stats of the solve that filled the store;
        # only replies that solved count as work done in the timed phase.
        if not hit:
            add_counters(work, stats)
        decided += response.verdict in DEFINITIVE
        if reasons:
            failures[op] = reasons
        else:
            ok += 1
    return {
        "rows": rows,
        "counters": counters,
        "work": work,
        "failures": failures,
        "decided": decided,
        "ok": ok,
    }


def serve_layer_stats(healthz: Tuple[Dict[str, Any], Dict[str, Any]]) -> Dict[str, float]:
    """Store and fabric counters over the timed phase (two /healthz reads)."""

    def delta(*path: str) -> int:
        values = []
        for node in healthz:
            for key in path[:-1]:
                node = node.get(key) or {}
            values.append(node.get(path[-1], 0))
        return values[1] - values[0]

    hits, misses = delta("store", "hits"), delta("store", "misses")
    return {
        "engine.store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.supervisor.retries": float(delta("fabric", "stats", "retries")),
        "engine.supervisor.workers_replaced": float(delta("fabric", "stats", "workers_replaced")),
    }


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, default=0)
    arguments = parser.parse_args()
    # A shell that starts a job in the background makes it ignore SIGINT,
    # and children inherit that; serve stops cleanly (fabric worker
    # included) only on SIGINT, so give the server the default disposition.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    sys.path.insert(0, SRC)

    workload = arguments.workload
    spec = load_json("workloads.json")["workloads"][workload]
    serve = workload.startswith("serve")
    tracer = None
    spans_path = None
    if arguments.trace and arguments.mode == "run":
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{workload}-{os.getpid()}.jsonl")

    # Set-up: imports and the request list (and, for serve, the server).
    import repro.api  # noqa: F401 — the public entry point under test

    if serve:
        server, ops = setup_serve(workload, arguments.seed, spec, spans_path)
    else:
        ops = setup_in_process(workload, arguments.seed, spec)
        if spans_path is not None:
            import tracing

            wrappers = load_json("layers.json")["wrappers"]
            import_targets(wrappers)
            tracer = tracing.Tracer()
            tracing.install(tracer, wrappers)
    print("READY", flush=True)
    if arguments.mode == "setup":
        if serve:
            server.stop()
        return 0

    if serve:
        try:
            timed = run_serve(server, ops)
        finally:
            server.stop()
    else:
        timed = run_in_process(ops, tracer)

    golden = load_json("golden.json")
    checker = Checker(golden["verdicts"][workload])
    if serve:
        checked = check_serve(workload, ops, timed, checker)
        layer = serve_layer_stats(timed["healthz"])
    else:
        checked = check_in_process(ops, timed, checker)
        layer = in_process_layer_stats()
    if tracer is not None:
        tracer.dump(spans_path)

    run_digest = digest(workload, checked["rows"], checked["counters"])
    result = {
        "workload": workload,
        "attempted": len(ops),
        "ok": checked["ok"],
        "decided": checked["decided"],
        "failures": checked["failures"],
        "uncertified": sorted(set(checker.uncertified)),
        "digest": run_digest,
        "golden_digest": golden["digests"].get(workload),
        "digest_counters": {key: checked["counters"].get(key, 0) for key in DIGEST_COUNTERS},
        "work_counters": checked["work"],
        "rows": checked["rows"],
        "wall_s": timed["wall_s"],
        "latencies": timed["latencies"],
        "peak_rss_mb": timed["peak_rss_mb"],
        "host_loop_ms": timed["host_loop_ms"],
        "layer": layer,
        "spans": spans_path,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def import_targets(wrappers) -> None:
    """Import every module a wrapper targets, so all binding sites exist."""
    import importlib

    for entry in wrappers:
        importlib.import_module(entry["target"].split(":")[0])


if __name__ == "__main__":
    sys.exit(main())
