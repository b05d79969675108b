"""The end-to-end benchmark of repro-nay, split by layer.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload check-suite --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn.  The workloads (their
rationale is in ``BENCHMARK.json``):

* ``check-suite`` — ``Solver(engine).check`` on all 141 benchmarks x five
  engines, on each benchmark's example set: the paper's check grid (§8);
* ``cegis-solve`` — ``Solver(engine).solve(kind="solve", seed=0)`` for
  naySL and nayHorn on the 50-benchmark CEGIS slate;
* ``serve-warm`` — ``repro-nay serve`` answering a fixed slate from a
  filled store (every reply a store hit);
* ``serve-cold`` — the same server, every request a fresh fingerprint, so
  every request solves on the fabric worker.

Files: ``workloads.json`` (slates, passes, and the CEGIS solves left out,
each with its reason), ``golden.json`` (the verdict of every op and the
determinism digest of every workload), ``layers.json`` (the per-layer table
and the functions the traced run wraps).

Every workload does the same work on every run; the seed only orders the
ops (and picks the serve request seeds).  One CPU-bound process runs at a
time: no pool, one fabric worker, one client connection.  A run makes the
workload's ``passes`` (fresh processes, one after another): latencies pool
the ops of every pass, wall time and peak memory are medians over passes.
Set-up is timed in every pass and in set-up-only processes before and after
the passes, and reported as the median.  On a shared 2-core host, speed
drifts by 10-40% over tens of seconds, so samples spread over the run are
steadier than samples taken back to back.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
with every layer's public functions wrapped and prints the per-layer
metrics (``trace.overhead_frac`` compares with the untraced pass walls this
checkout has recorded in ``e2ebench/out``, running one if there are none).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose outputs fail a
check, or whose determinism digest differs from the golden one, prints
``"correct": false`` and exits 1.

The op lists are fixed, so ``--seconds`` never cuts a run short or
stretches it: with the program at bd46ee3 the timed phases take about
45-50 s (check-suite), 14-15 s (cegis-solve), 5 x 1.0 s (serve-warm) and
2 x 8 s (serve-cold) on a 2-core host, about 21 s on average.  A workload's
run is stopped (and fails) if it passes 170 seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import tracing
from workload import load_json

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("check-suite", "cegis-solve", "serve-warm", "serve-cold")

#: Set-up is timed this many times per run (fresh processes), reported as
#: the median.  Every pass contributes one sample; set-up-only processes
#: make up the rest.
SETUP_SAMPLES = 5

#: A run that is still going after this many seconds is stopped and fails.
RUN_LIMIT_SECONDS = 170.0


def median(values: List[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that
    percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Child:
    """One fresh ``workload.py`` process; set-up is timed from spawn to READY."""

    def __init__(self, workload: str, seed: int, mode: str, trace: int, deadline: float):
        command = [
            sys.executable,
            os.path.join(HERE, "workload.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--mode", mode,
            "--trace", str(trace),
        ]
        # The program gets only the generated inputs: no store, fault plan
        # or fabric size from the caller's environment.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_NAY_")}
        env.update(PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        # Its own process group, so a stop also reaches the server and the
        # fabric worker a serve workload starts.
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.kill)
        self.timer.start()
        self.setup_s: Optional[float] = None
        self.result: Optional[Dict[str, Any]] = None
        self.lines: List[str] = []
        for line in self.process.stdout:
            if line.startswith("READY") and self.setup_s is None:
                self.setup_s = time.perf_counter() - started
            elif line.startswith("RESULT "):
                self.result = json.loads(line[len("RESULT "):])
            else:
                self.lines.append(line.rstrip("\n"))
        self.returncode = self.process.wait()
        self.timer.cancel()
        self.process.stdout.close()

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def fail(message: str) -> int:
    print(f"e2ebench: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# Wall-time history, for trace.overhead_frac
# ---------------------------------------------------------------------------


def history_path(workload: str) -> str:
    return os.path.join(OUT, f"walls-{workload}.json")


def load_history(workload: str) -> Dict[str, List[float]]:
    try:
        with open(history_path(workload), encoding="utf-8") as handle:
            return json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return {"untraced": [], "traced": []}


def record_history(workload: str, kind: str, wall: float) -> Dict[str, List[float]]:
    history = load_history(workload)
    history.setdefault(kind, []).append(wall)
    os.makedirs(OUT, exist_ok=True)
    with open(history_path(workload), "w", encoding="utf-8") as handle:
        json.dump(history, handle)
    return history


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def verdict_problems(result: Dict[str, Any]) -> List[str]:
    problems = []
    if result["ok"] != result["attempted"]:
        shown = list(result["failures"].items())[:10]
        problems.append(f"{result['attempted'] - result['ok']} ops failed their checks: {shown}")
    if result["digest"] != result["golden_digest"]:
        problems.append(
            f"determinism digest {result['digest']} != golden {result['golden_digest']}"
        )
    return problems


def end_to_end(results: List[Dict[str, Any]], setup_samples: List[float]) -> Dict[str, float]:
    """Latencies and fractions pool the ops of every pass; wall time and
    memory are medians over the passes."""
    attempted = sum(result["attempted"] for result in results)
    latencies = [latency for result in results for latency in result["latencies"]]
    return {
        "setup_s": median(setup_samples),
        "wall_s": median([result["wall_s"] for result in results]),
        "latency_p50_ms": median(latencies) * 1000.0,
        "decided_frac": sum(result["decided"] for result in results) / attempted,
        "ok_frac": sum(result["ok"] for result in results) / attempted,
        "peak_rss_mb": median([result["peak_rss_mb"] for result in results]),
    }


def per_layer(
    workload: str,
    result: Dict[str, Any],
    untraced_walls: List[float],
    traced_walls: List[float],
) -> Tuple[Dict[str, float], List[str], Dict[str, int]]:
    sites, spans = tracing.load_spans(result["spans"])
    table = tracing.summarize(spans, set(range(result["attempted"])))
    wrappers = load_json("layers.json")["wrappers"]

    def row(name: str) -> Dict[str, Any]:
        return table.get(name, tracing.empty_row())

    problems = []
    for entry in wrappers:
        if workload in entry["heavy"] and row(entry["span"])["calls"] == 0:
            problems.append(f"wrapper {entry['span']} ({entry['target']}) recorded no call")

    metrics: Dict[str, float] = {}
    for name in (
        "suites.get_benchmark",
        "grammar.normalize_for_gfa",
        "gfa.solve_newton",
        "gfa.solve_stratified",
        "domains.semilinear.simplify",
        "logic.context_check",
        "unreal.solve_abstract_gfa",
        "analysis.check_certificate",
        "synth.synthesize",
        "synth.verify",
        "engine.request_fingerprint",
        "engine.store.get",
        "engine.store.put",
        "engine.supervisor.solve",
    ):
        metrics[f"{name}.calls"] = float(row(name)["calls"])
        metrics[f"{name}.self_s"] = row(name)["self_s"]
    builders = [r for n, r in table.items() if n.startswith("unreal.certificate_build")]
    metrics["unreal.certificate_build.calls"] = float(sum(r["calls"] for r in builders))
    metrics["unreal.certificate_build.self_s"] = sum((r["self_s"] for r in builders), 0.0)
    metrics["engine.store.get.tail_ms"] = tail(row("engine.store.get")["durations"])[0] * 1000.0
    verify = row("synth.verify")
    metrics["synth.verify_valid_ratio"] = verify["observed"] / verify["calls"] if verify["calls"] else 0.0
    supervisor = row("engine.supervisor.solve")
    metrics["engine.supervisor.outside_engine_s"] = supervisor["total_s"] - supervisor["observed"]

    handler = row("api.service.handler")
    serve = workload.startswith("serve")
    metrics["api.http.front_s"] = (sum(result["latencies"]) - handler["total_s"]) if serve else 0.0
    metrics["api.service.handler_self_s"] = handler["self_s"]
    metrics["api.service.read_request.self_s"] = row("api.service.read_request")["self_s"]
    metrics["api.service.send_json.self_s"] = row("api.service.send_json")["self_s"]

    work = result["work_counters"]
    for key in ("sat_checks", "theory_queries", "simplex_pivots", "bb_nodes", "lemma_hits"):
        metrics[f"logic.{key}"] = float(work.get(key, 0))
    sat_checks = work.get("sat_checks", 0)
    metrics["logic.formula_cache_hit_ratio"] = (
        work.get("formula_cache_hits", 0) / sat_checks if sat_checks else 0.0
    )
    metrics["unreal.certificate_bytes"] = float(work.get("certificate_size", 0))
    metrics["synth.candidates_deduped"] = float(work.get("enumerator_candidates_deduped", 0))

    layer = result["layer"]
    for name in (
        "engine.cache.normalize_hit_ratio",
        "engine.cache.equations_hit_ratio",
        "domains.semilinear.memo_hit_ratio",
        "engine.store.hit_ratio",
        "engine.supervisor.retries",
        "engine.supervisor.workers_replaced",
    ):
        metrics[name] = float(layer.get(name, 0.0))

    metrics["trace.unattributed_s"] = result["wall_s"] - sum(r["self_s"] for r in table.values())
    metrics["trace.overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1.0
    return metrics, problems, sites


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, trace: int, deadline: float) -> Dict[str, Any]:
    """One benchmark run of one workload: the result object it prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    problems: List[str] = []
    diagnostics: Dict[str, Any] = {"workload": workload, "seed": seed, "trace": trace}

    def spawn(mode: str, traced: int) -> Child:
        child = Child(workload, seed, mode, traced, deadline)
        if child.returncode != 0 or child.setup_s is None or (mode == "run" and child.result is None):
            tail_lines = "\n".join(child.lines[-20:])
            raise RuntimeError(
                f"{workload} {mode} process failed (exit {child.returncode})\n{tail_lines}"
            )
        return child

    if not trace:
        count = load_json("workloads.json")["workloads"][workload]["passes"]
        extra = max(0, SETUP_SAMPLES - count)
        # Set-up-only processes go before and after the passes, so the
        # set-up samples span the run rather than one host-speed phase.
        setups = [spawn("setup", 0).setup_s for _ in range(extra // 2)]
        passes = [spawn("run", 0) for _ in range(count)]
        setups += [child.setup_s for child in passes]
        setups += [spawn("setup", 0).setup_s for _ in range(extra - extra // 2)]
        results = [child.result for child in passes]
        for result in results:
            problems += verdict_problems(result)
        metrics = end_to_end(results, setups)
        diagnostics["setup_samples_s"] = setups
        diagnostics["pass_walls_s"] = [result["wall_s"] for result in results]
        if not problems:
            for result in results:
                record_history(workload, "untraced", result["wall_s"])
    else:
        untraced = load_history(workload)["untraced"]
        if not untraced:
            reference = spawn("run", 0).result
            problems += verdict_problems(reference)
            untraced = record_history(workload, "untraced", reference["wall_s"])["untraced"]
        result = spawn("run", 1).result
        results = [result]
        problems += verdict_problems(result)
        traced = record_history(workload, "traced", result["wall_s"])["traced"]
        metrics, coverage, sites = per_layer(workload, result, untraced, traced)
        problems += coverage
        diagnostics["binding_sites"] = sites
        diagnostics["untraced_walls_s"] = untraced
        diagnostics["traced_walls_s"] = traced
        os.remove(result["spans"])

    diagnostics.update(
        attempted=sum(r["attempted"] for r in results),
        ok=sum(r["ok"] for r in results),
        decided=sum(r["decided"] for r in results),
        digest=result["digest"],
        golden_digest=result["golden_digest"],
        digest_counters=result["digest_counters"],
        work_counters=result["work_counters"],
        unrealizable_without_certificate=result["uncertified"],
        host_loop_ms_before_after=[r["host_loop_ms"] for r in results],
    )
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    for name, value in metrics.items():
        print(f"{workload:12s} {name:40s} {value:14.6f} {units[name]}")
    if not trace:
        # The latency tail is printed but not gated: on a shared 2-core host
        # ten runs of one op list spread by up to 30% (IQR over median), past
        # the largest bound a metric may have.
        value, percentile = tail([latency for r in results for latency in r["latencies"]])
        print(
            f"{workload:12s} {'latency_tail_ms':40s} {value * 1000.0:14.6f} ms"
            f"  (p{percentile:.2f} of n={diagnostics['attempted']}; not gated)"
        )
    host_loops = " ".join(
        f"{before:.1f}/{after:.1f}" for before, after in diagnostics["host_loop_ms_before_after"]
    )
    print(f"{workload:12s} {'host_loop_ms before/after':40s} {host_loops}  (diagnostic only)")
    for problem in problems:
        print(f"FAILED: {problem}")
    summary = {
        "correct": not problems,
        "attempted": diagnostics["attempted"],
        "failed": diagnostics["attempted"] - diagnostics["ok"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return fail(f"no program to measure: {SRC}/repro is missing")
    # Compile bytecode before any set-up is timed: the first run after a
    # checkout would otherwise time the compiler.
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SRC, HERE],
        cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    if compiled.returncode != 0:
        return fail("compileall failed")

    workloads = WORKLOADS if arguments.workload == "all" else (arguments.workload,)
    summaries = []
    for workload in workloads:
        try:
            deadline = time.monotonic() + RUN_LIMIT_SECONDS
            summary = run_workload(workload, arguments.seed, arguments.trace, deadline)
        except RuntimeError as error:
            return fail(str(error))
        summaries.append((workload, summary))
        if arguments.workload == "all":
            print(json.dumps(summary))
    if arguments.workload == "all":
        summary = {
            "correct": all(s["correct"] for _, s in summaries),
            "attempted": sum(s["attempted"] for _, s in summaries),
            "failed": sum(s["failed"] for _, s in summaries),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, s in summaries
                for name, metric in s["metrics"].items()
            },
        }
    else:
        summary = summaries[0][1]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
