"""The repeatable perf harnesses behind ``repro-nay bench``.

Three suites live here, one entry each in :data:`SUITES`, selected with
``--suite``:

* ``domains`` — the columnar evaluation core over an example-count sweep
  (|E| = 10 → 5000), each workload measured through up to three legs:
  ``reference`` (the frozen pre-columnar twins in
  :mod:`repro.semantics.reference` and :mod:`repro.domains.reference`),
  ``python`` and ``numpy`` (the columnar code on either backend; absent
  when numpy is not installed).  Result agreement across legs is checked
  before timing;
* ``grammar`` — observational-equivalence pruning on fig2/fig3-style
  solves, and the memoized enumerator against the frozen reference;
* ``serve`` — concurrent clients over the real HTTP server and a fresh
  persistent result store, cold vs warm.

Every suite shares three pieces: :func:`run_suite` wraps a suite's rows in
one versioned report envelope, :func:`render` prints any report as one
table, and :func:`_time_legs` is the one timing loop.  It clears the
process-wide memo tables before *every* timed call, so no leg warms the
caches for another, and it rotates the order of a workload's legs on every
repetition, so a slow spell of the host is not always charged to the same
leg.

A suite's gates are data: each :class:`Gate` names a ``summary`` key, a
comparison, the bar a full run (and so the committed artifact) must meet,
and the bar a ``--quick`` run must meet.  ``repro-nay bench`` checks them
after writing the artifact, prints one line per gate and exits 1 when one
fails.  Medians are compared like with like on the same machine and
interpreter state, giving future changes a perf trajectory to compare
against (see DESIGN.md).
"""

from __future__ import annotations

import json
import operator
import statistics
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import clear_cache
from repro.domains.reference import ReferenceIntervalDomain
from repro.domains.registry import create_domain
from repro.grammar import alphabet as alph
from repro.grammar.terms import Term
from repro.semantics.evaluator import EvalMemo, evaluate
from repro.semantics.reference import reference_evaluate
from repro.unreal.approximate import check_examples_abstract, solve_abstract_gfa
from repro.unreal.lia import solve_lia_gfa
from repro.suites.scaling import (
    chain_grammar,
    example_set,
    large_example_set,
    scaling_benchmark,
)
from repro.utils.columns import NUMPY_OPS, use_backend
from repro.utils.errors import ReproError

Report = Dict[str, object]


# ---------------------------------------------------------------------------
# Shared pieces: timing, cells, gates, envelope, rendering
# ---------------------------------------------------------------------------


def _time_legs(
    legs: Dict[str, Callable[[], object]], repetitions: int
) -> Dict[str, List[float]]:
    """Wall seconds of every leg of one workload, ``repetitions`` samples each.

    Caches are cleared before every timed call.  The leg order rotates by
    one on each repetition, so with two legs they alternate.
    """
    names = list(legs)
    seconds: Dict[str, List[float]] = {name: [] for name in names}
    for repetition in range(repetitions):
        shift = repetition % len(names)
        for name in names[shift:] + names[:shift]:
            clear_cache()
            started = time.perf_counter()
            legs[name]()
            seconds[name].append(time.perf_counter() - started)
    return seconds


def _cell(
    seconds: List[float], rate: Optional[str] = None, work: int = 0, **extra: object
) -> Dict[str, object]:
    """One leg's measurement; ``rate`` names ``work`` per median second."""
    median = statistics.median(seconds)
    cell: Dict[str, object] = {
        "median_seconds": median,
        "min_seconds": min(seconds),
        "repetitions": len(seconds),
        "seconds": seconds,
        **extra,
    }
    if rate is not None:
        cell[rate] = work / median if median > 0 else None
    return cell


def _ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    return numerator / denominator if numerator is not None and denominator else None


def _median_seconds(row: Dict[str, object], leg: str) -> Optional[float]:
    cell = row.get(leg)
    return cell["median_seconds"] if isinstance(cell, dict) else None


_COMPARISONS = {">=": operator.ge, "<=": operator.le, "is": operator.is_}


@dataclass(frozen=True)
class Gate:
    """A bar on one ``summary`` key.

    ``full`` is checked on full runs, and so on the committed artifact;
    ``quick`` is checked on ``--quick`` runs.  ``None`` leaves that mode
    unchecked.  ``op`` is ``">="``, ``"<="`` or ``"is"``.
    """

    key: str
    op: str
    full: object = None
    quick: object = None

    def bar(self, quick: bool) -> object:
        return self.quick if quick else self.full

    def check(self, summary: Dict[str, object], quick: bool) -> Tuple[bool, str]:
        """Whether ``summary`` meets this gate's bar, and a one-line verdict."""
        bar = self.bar(quick)
        head = f"gate {self.key} {self.op} {bar}:"
        value = summary.get(self.key)
        if value is None:
            return False, f"{head} FAIL, {self.key!r} is missing from the summary"
        passed = bool(_COMPARISONS[self.op](value, bar))
        return passed, f"{head} {_format(value)} {'ok' if passed else 'FAIL'}"


def check_gates(report: Report) -> List[Tuple[bool, str]]:
    """Check a report against its suite's gates for its mode (full or quick)."""
    quick = bool(report["quick"])
    return [
        gate.check(report["summary"], quick)
        for gate in SUITES[report["suite"]].gates
        if gate.bar(quick) is not None
    ]


def run_suite(name: str, repetitions: int = 3, quick: bool = False) -> Report:
    """Run one suite and wrap its rows and summary in the report envelope."""
    suite = SUITES[name]
    body = suite.run(repetitions, quick)
    return {
        "schema_version": suite.schema_version,
        "suite": name,
        "created_unix": int(time.time()),
        "repetitions": repetitions,
        "quick": quick,
        **body,
    }


def write_report(report: Report, path: str | Path) -> Path:
    target = Path(path)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return target


def _format(value: object) -> str:
    return str(round(value, 3)) if isinstance(value, float) else str(value)


def _render_cell(row: Dict[str, object], path: str, template: str) -> str:
    value: object = row
    for key in path.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    if value is None:
        return "-"
    return template.format(value)


def render(report: Report) -> str:
    """A report's rows as one aligned table, followed by its summary."""
    suite = SUITES[report["suite"]]
    table = [[header for header, _, _ in suite.columns]]
    for row in report[suite.rows]:
        table.append(
            [_render_cell(row, path, template) for _, path, template in suite.columns]
        )
    widths = [max(len(line[index]) for line in table) for index in range(len(table[0]))]
    lines = [
        "  ".join(
            cell.ljust(width) if index == 0 else cell.rjust(width)
            for index, (cell, width) in enumerate(zip(line, widths))
        )
        for line in table
    ]
    lines.extend(
        f"  {key}: {_format(value)}" for key, value in sorted(report["summary"].items())
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The domains suite: the columnar evaluation core, |E| sweep
# ---------------------------------------------------------------------------

#: The example-count sweep.  1000 is the gate point (see docs), 5000 shows
#: whether the speedup keeps growing; 10/16 cover the small-|E| regime where
#: the pure-Python fallback must not have regressed.
DOMAINS_EXAMPLE_COUNTS: Tuple[int, ...] = (10, 16, 100, 1000, 5000)
DOMAINS_QUICK_COUNTS: Tuple[int, ...] = (16, 1000)

#: |E| at or below this bound is the "small example set" regime: the python
#: leg there is gated against the reference leg.
DOMAINS_SMALL_EXAMPLES = 16


def domains_backend_legs() -> List[str]:
    """The measurable legs on this interpreter: numpy only when installed."""
    legs = ["reference", "python"]
    if NUMPY_OPS is not None:
        legs.append("numpy")
    return legs


def evaluate_slate(depth: int = 16) -> List[Term]:
    """A CLIA term slate whose members share subterms aggressively.

    Each step extends the running ``Plus`` chain ``acc`` and derives a
    ``Minus`` / ``LessThan`` / ``IfThenElse`` / ``Equal`` cluster from it, so
    consecutive slate entries overlap in all but their top few nodes — the
    shape the enumerator produces, and the one the per-call memo of
    :func:`repro.semantics.evaluator.evaluate` is built for.  The reference
    leg re-walks every shared subterm per term, like the pre-change
    evaluator did.
    """
    x = Term(alph.var("x"))
    one = Term(alph.num(1))
    terms: List[Term] = []
    acc = x
    for index in range(depth):
        acc = Term(alph.plus(2), (acc, one if index % 2 else x))
        shifted = Term(alph.minus(), (acc, x))
        guard = Term(alph.less_than(), (shifted, acc))
        bounded = Term(alph.if_then_else(), (guard, shifted, acc))
        terms.append(bounded)
        terms.append(Term(alph.equal(), (bounded, acc)))
    return terms


def _domains_row(
    name: str,
    group: str,
    examples_count: int,
    legs: Dict[str, Callable[[], object]],
    repetitions: int,
    **extra: object,
) -> Dict[str, object]:
    """Check that every leg agrees with the first, then time them all."""
    answers = {}
    for leg, run in legs.items():
        clear_cache()
        answers[leg] = run()
    first = next(iter(answers.values()))
    for leg, answer in answers.items():
        if answer != first:
            raise ReproError(f"{name}: result mismatch on the {leg} leg")

    seconds = _time_legs(legs, repetitions)
    row: Dict[str, object] = {
        "name": name,
        "group": group,
        "examples": examples_count,
        **extra,
    }
    for leg in legs:
        # Throughput normalised by |E| alone: how many examples per second
        # this workload processes end-to-end at this |E|.
        row[leg] = _cell(seconds[leg], "examples_per_sec", examples_count)
    reference = _median_seconds(row, "reference")
    python = _median_seconds(row, "python")
    numpy = _median_seconds(row, "numpy")
    row["python_vs_reference"] = _ratio(reference, python)
    row["numpy_vs_reference"] = _ratio(reference, numpy)
    row["numpy_vs_python"] = _ratio(python, numpy)
    return row


def _measure_evaluate_row(
    examples_count: int, repetitions: int, legs: Sequence[str]
) -> Dict[str, object]:
    terms = evaluate_slate()
    examples = large_example_set(examples_count)

    def run(leg: str) -> list:
        if leg == "reference":
            return [reference_evaluate(term, examples) for term in terms]
        with use_backend(leg):
            memo: EvalMemo = {}
            return [evaluate(term, examples, memo) for term in terms]

    return _domains_row(
        f"evaluate_e{examples_count}",
        "evaluate",
        examples_count,
        {leg: partial(run, leg) for leg in legs},
        repetitions,
        terms=len(terms),
    )


def _measure_interval_row(
    examples_count: int, repetitions: int, legs: Sequence[str]
) -> Dict[str, object]:
    grammar = chain_grammar(12)
    examples = example_set(examples_count)

    def solve(leg: str):
        if leg == "reference":
            solution = solve_abstract_gfa(
                grammar, examples, domain=ReferenceIntervalDomain()
            )
        else:
            with use_backend(leg):
                solution = solve_abstract_gfa(grammar, examples, domain="interval")
        return solution.start_value.intervals

    return _domains_row(
        f"interval_gfa_e{examples_count}",
        "interval",
        examples_count,
        {leg: partial(solve, leg) for leg in legs},
        repetitions,
    )


def _measure_powerset_row(
    examples_count: int, repetitions: int, legs: Sequence[str]
) -> Dict[str, object]:
    # No frozen twin here: the pre-change powerset transfers were the same
    # per-pair Python loops the python backend runs, so the python leg *is*
    # the baseline and the row carries backend legs only.
    benchmark = scaling_benchmark(8)
    examples = example_set(examples_count)

    def check(leg: str):
        with use_backend(leg):
            return check_examples_abstract(
                benchmark.problem,
                examples,
                domain=create_domain("powerset", cap=64, max_examples=examples_count),
            ).verdict

    return _domains_row(
        f"powerset_e{examples_count}",
        "powerset",
        examples_count,
        {leg: partial(check, leg) for leg in legs if leg != "reference"},
        repetitions,
    )


def _run_domains(repetitions: int, quick: bool) -> Report:
    """Sweep the columnar hot paths over |E|; compare legs."""
    counts = DOMAINS_QUICK_COUNTS if quick else DOMAINS_EXAMPLE_COUNTS
    legs = domains_backend_legs()
    measures = (_measure_evaluate_row, _measure_interval_row, _measure_powerset_row)
    rows = [
        measure(count, repetitions, legs) for measure in measures for count in counts
    ]
    return {
        "legs": legs,
        "numpy_available": NUMPY_OPS is not None,
        "workloads": rows,
        "summary": _summarise_domains(rows),
    }


def _summarise_domains(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Roll-ups, including the two gate keys.

    * ``gate_numpy_speedup_e1000`` — the *minimum* numpy-vs-reference
      speedup over the ``evaluate`` and ``interval`` groups at |E| = 1000.
      Absent when numpy is not installed.
    * ``gate_python_small_e_slowdown`` — the *maximum* python-vs-reference
      slowdown at |E| <= DOMAINS_SMALL_EXAMPLES over the same groups (the
      fallback must not regress small example sets).
    """
    summary: Dict[str, object] = {}
    gate_groups = ("evaluate", "interval")
    gate_speedups = [
        row["numpy_vs_reference"]
        for row in rows
        if row["group"] in gate_groups
        and row["examples"] == 1000
        and row.get("numpy_vs_reference") is not None
    ]
    if gate_speedups:
        summary["gate_numpy_speedup_e1000"] = min(gate_speedups)
    small_slowdowns = [
        1.0 / row["python_vs_reference"]
        for row in rows
        if row["group"] in gate_groups
        and row["examples"] <= DOMAINS_SMALL_EXAMPLES
        and row.get("python_vs_reference")
    ]
    if small_slowdowns:
        summary["gate_python_small_e_slowdown"] = max(small_slowdowns)
    for group in sorted({row["group"] for row in rows}):
        for ratio in ("numpy_vs_python", "numpy_vs_reference"):
            values = [
                row[ratio]
                for row in rows
                if row["group"] == group and row.get(ratio) is not None
            ]
            if values:
                summary[f"{group}_{ratio}_median"] = statistics.median(values)
    return summary


# ---------------------------------------------------------------------------
# The grammar (tree-automaton core) suite
# ---------------------------------------------------------------------------
#
# Two question families, both over generated grammar-scale slates
# (:mod:`repro.suites.scaling`'s redundant chains and expression grammars,
# hundreds of productions at the top end):
#
# * **Pruning** — how much smaller do the GFA equation systems get when the
#   grammar goes through observational-equivalence pruning first, and what
#   does that do to equation evaluations and wall time on the fig2 (exact
#   semi-linear) and fig3 (abstract-interval) solve legs?
# * **Enumeration** — how fast does each enumerator cover the *same*
#   de-duplicated candidate space (``candidates_per_sec`` shares its
#   numerator across legs: the number of distinct-behavior candidates up to
#   the size budget, a property of the grammar, divided by each leg's wall
#   time), and what does bank memoization buy on the repeat rounds the
#   CEGIS loop actually performs?

#: ``(length, fanout)`` of the redundant-chain slate for the pruning rows.
GRAMMAR_PRUNE_SLATE: Tuple[Tuple[int, int], ...] = ((6, 3), (10, 3), (14, 4), (20, 5))
GRAMMAR_PRUNE_QUICK_SLATE: Tuple[Tuple[int, int], ...] = ((6, 3), (20, 5))

#: Fanouts of the redundant-expression slate for the enumerator rows.
GRAMMAR_ENUM_SLATE: Tuple[int, ...] = (2, 3, 4)
GRAMMAR_ENUM_QUICK_SLATE: Tuple[int, ...] = (2, 4)

#: |E| for the pruning rows and the enumerator example sets.
GRAMMAR_EXAMPLES = 3

#: Rows at or above this many productions feed the wall-clock gate (tiny
#: rows are too noisy to gate on).
GRAMMAR_GATE_MIN_PRODUCTIONS = 80


def _measure_grammar_prune_row(
    length: int, fanout: int, leg: str, repetitions: int
) -> Dict[str, object]:
    from repro.grammar import prune_grammar
    from repro.suites.scaling import redundant_chain_grammar

    grammar = redundant_chain_grammar(
        length, fanout, name=f"redundant_chain_{length}x{fanout}"
    )
    examples = example_set(GRAMMAR_EXAMPLES)
    solver = solve_lia_gfa if leg == "fig2_lia" else solve_abstract_gfa
    _, report = prune_grammar(grammar, examples, mode="oe")
    modes = {
        mode: partial(solver, grammar, examples, prune=mode) for mode in ("off", "oe")
    }
    evaluations = {}
    for mode, solve in modes.items():
        clear_cache()
        evaluations[mode] = solve().evaluations
    seconds = _time_legs(modes, repetitions)
    row: Dict[str, object] = {
        "name": f"{leg}_chain_{length}x{fanout}",
        "group": "prune",
        "leg": leg,
        "length": length,
        "fanout": fanout,
        "examples": GRAMMAR_EXAMPLES,
        "states": {"before": report.states_before, "after": report.states_after},
        "productions": {
            "before": report.productions_before,
            "after": report.productions_after,
            "pruned": report.productions_pruned,
        },
    }
    for mode in modes:
        row[mode] = _cell(seconds[mode], evaluations=evaluations[mode])
    row["evaluation_reduction"] = evaluations["off"] / max(1, evaluations["oe"])
    row["wall_ratio_oe_vs_off"] = _ratio(
        _median_seconds(row, "oe"), _median_seconds(row, "off")
    )
    return row


def _measure_grammar_enum_row(fanout: int, repetitions: int) -> Dict[str, object]:
    from repro.suites.scaling import redundant_expression_benchmark
    from repro.synth import EnumerativeSynthesizer, ReferenceSynthesizer

    benchmark = redundant_expression_benchmark(fanout)
    problem = benchmark.problem
    examples = example_set(GRAMMAR_EXAMPLES)
    max_size, max_terms = 7, 50_000

    # The shared numerator: distinct-behavior candidates up to the budget.
    probe = EnumerativeSynthesizer(max_size, max_terms)
    candidates = probe.synthesize(problem, examples).explored_terms

    # Warm leg: the synthesizer keeps its banks across calls, the shape of
    # repeat CEGIS rounds whose example set did not change.
    warm_synthesizer = EnumerativeSynthesizer(max_size, max_terms)
    warm_synthesizer.synthesize(problem, examples)
    seconds = _time_legs(
        {
            "reference": lambda: ReferenceSynthesizer(max_size, max_terms).synthesize(
                problem, examples
            ),
            "memoized": lambda: EnumerativeSynthesizer(max_size, max_terms).synthesize(
                problem, examples
            ),
            "memoized_warm": partial(warm_synthesizer.synthesize, problem, examples),
        },
        repetitions,
    )
    row: Dict[str, object] = {
        "name": f"enumerate_expr_{fanout}",
        "group": "enumerate",
        "fanout": fanout,
        "productions": problem.grammar.num_productions,
        "max_size": max_size,
        "examples": GRAMMAR_EXAMPLES,
        "distinct_candidates": candidates,
    }
    for leg, samples in seconds.items():
        row[leg] = _cell(samples, "candidates_per_sec", candidates)
    reference = _median_seconds(row, "reference")
    row["speedup_cold"] = _ratio(reference, _median_seconds(row, "memoized"))
    row["speedup_warm"] = _ratio(reference, _median_seconds(row, "memoized_warm"))
    return row


def _run_grammar(repetitions: int, quick: bool) -> Report:
    """Measure OE pruning and the memoized enumerator on generated slates."""
    prune_slate = GRAMMAR_PRUNE_QUICK_SLATE if quick else GRAMMAR_PRUNE_SLATE
    enum_slate = GRAMMAR_ENUM_QUICK_SLATE if quick else GRAMMAR_ENUM_SLATE
    rows = [
        _measure_grammar_prune_row(length, fanout, leg, repetitions)
        for length, fanout in prune_slate
        for leg in ("fig2_lia", "fig3_abstract")
    ]
    rows += [_measure_grammar_enum_row(fanout, repetitions) for fanout in enum_slate]
    return {"workloads": rows, "summary": _summarise_grammar(rows)}


def _summarise_grammar(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Roll-ups, including the three gate keys.

    * ``gate_oe_evaluation_reduction`` — the *best* equation-evaluation
      reduction over the fig2/fig3 prune rows.
    * ``gate_prune_wall_ratio`` — the *worst* oe-vs-off wall-clock ratio
      over prune rows with at least ``GRAMMAR_GATE_MIN_PRODUCTIONS``
      productions (pruning must not cost more than it saves).
    * ``gate_enumerator_speedup`` — the *worst* cold-leg speedup of the
      memoized enumerator over the reference.
    """
    summary: Dict[str, object] = {}
    prune_rows = [row for row in rows if row["group"] == "prune"]
    enum_rows = [row for row in rows if row["group"] == "enumerate"]
    if prune_rows:
        summary["gate_oe_evaluation_reduction"] = max(
            row["evaluation_reduction"] for row in prune_rows
        )
        summary["evaluation_reduction_median"] = statistics.median(
            row["evaluation_reduction"] for row in prune_rows
        )
        gated = [
            row
            for row in prune_rows
            if row["productions"]["before"] >= GRAMMAR_GATE_MIN_PRODUCTIONS
        ]
        if gated:
            summary["gate_prune_wall_ratio"] = max(
                row["wall_ratio_oe_vs_off"] for row in gated
            )
        summary["productions_pruned_total"] = sum(
            row["productions"]["pruned"] for row in prune_rows
        )
    if enum_rows:
        summary["gate_enumerator_speedup"] = min(
            row["speedup_cold"] for row in enum_rows
        )
        summary["enumerator_warm_speedup_median"] = statistics.median(
            row["speedup_warm"] for row in enum_rows
        )
    return summary


# ---------------------------------------------------------------------------
# The serve load harness (BENCH_serve.json)
# ---------------------------------------------------------------------------

#: Benchmark slate the serve load harness repeats: cheap, definitive
#: unrealizable checks across the families the engines exercise, so a
#: request stream over them is realistic but each individual solve stays
#: sub-second (the harness measures the *service*, not the engines).
SERVE_BENCH_SLATE = (
    "plane1",
    "plane2",
    "plane3",
    "guard1",
    "guard2",
    "guard3",
    "mpg_guard1",
    "ite1",
    "ite2",
    "max2",
)

#: The benchmark the harness solves once to warm the fabric workers and
#: the parent's import caches before any timed leg (kept out of the slate
#: so its store entry cannot turn a cold-leg request into a hit).
SERVE_WARMUP_BENCHMARK = "guard4"


def _serve_percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of a sample by rank (no interpolation)."""
    import math

    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def _serve_drive(
    server, payloads: List[Dict[str, object]], clients: int
) -> List[Dict[str, object]]:
    """POST every payload through ``clients`` concurrent threads.

    Each worker thread opens one connection per request (the stdlib server
    speaks HTTP/1.0, one request per connection) and records wall latency,
    status, wire validity, verdict, and whether the response was served
    from the persistent store.
    """
    import http.client
    import threading as _threading

    from repro.api.wire import SolveResponse

    host, port = server.server_address[0], server.server_address[1]
    results: List[Dict[str, object]] = []
    lock = _threading.Lock()
    cursor = {"next": 0}

    def worker() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(payloads):
                    return
                cursor["next"] = index + 1
            body = json.dumps(payloads[index]).encode("utf-8")
            started = time.perf_counter()
            conn = http.client.HTTPConnection(host, port, timeout=300)
            try:
                conn.request(
                    "POST",
                    "/solve",
                    body,
                    {"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                status = reply.status
                raw = reply.read()
            finally:
                conn.close()
            elapsed = time.perf_counter() - started
            row: Dict[str, object] = {
                "seconds": elapsed,
                "status": status,
                "schema_valid": False,
                "definitive": False,
                "store_hit": False,
            }
            try:
                payload = json.loads(raw.decode("utf-8"))
                response = SolveResponse.from_json(payload)
                row["schema_valid"] = status == 200
                row["definitive"] = response.is_definitive
                row["store_hit"] = bool(response.solver_stats.get("store_hits"))
            except Exception:  # noqa: BLE001 — malformed replies count as invalid
                pass
            with lock:
                results.append(row)

    threads = [_threading.Thread(target=worker) for _ in range(max(1, clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _serve_leg(
    name: str, unique: int, rows: List[Dict[str, object]], wall: float
) -> Dict[str, object]:
    """Aggregate one driven leg, ``wall`` seconds long, into a row."""
    latencies = [row["seconds"] for row in rows]
    hits = sum(1 for row in rows if row["store_hit"])
    return {
        "name": name,
        "requests": len(rows),
        "unique": unique,
        "seconds": round(wall, 4),
        "requests_per_sec": round(len(rows) / wall, 3) if wall else 0.0,
        "p50_ms": round(_serve_percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(_serve_percentile(latencies, 0.99) * 1000, 3),
        "mean_ms": round((sum(latencies) / len(rows)) * 1000, 3) if rows else 0.0,
        "store_hits": hits,
        "hit_ratio": round(hits / len(rows), 4) if rows else 0.0,
        "schema_valid": sum(1 for row in rows if row["schema_valid"]),
        "definitive": sum(1 for row in rows if row["definitive"]),
    }


def _run_serve(repetitions: int, quick: bool) -> Report:
    """Concurrent-client load over the real HTTP server + persistent store.

    Spins up the production stack in-process — :func:`make_server` backed by
    a supervised solve fabric and a fresh
    :class:`~repro.engine.store.ResultStore` in a temp directory — and
    drives concurrent client threads through three request streams:

    * **cold** — every slate benchmark exactly once: all misses, every
      request pays for a real solve (the store is empty);
    * **warm_repeat** — the repeat-heavy leg: the same slate round-robined
      ``max(4, 2 * repetitions)`` times, every request a store hit;
    * **mixed** — repeats interleaved with fresh variants (distinct seeds,
      so distinct fingerprints but identical solve cost), the realistic
      hit-ratio regime.

    The headline gate key is ``gate_warm_vs_cold_throughput`` — warm
    requests/sec over cold requests/sec.  Ratios, not absolute rates, are
    gated: wall clocks vary across machines, the cold/warm split on the same
    machine in the same run does not.
    """
    import os
    import shutil
    import tempfile
    import threading as _threading

    from repro.api import Solver
    from repro.api.service import make_server
    from repro.engine.store import ResultStore, install_result_store
    from repro.engine.supervisor import (
        BreakerBoard,
        RetryPolicy,
        Supervisor,
        install_fabric,
    )

    slate = list(SERVE_BENCH_SLATE[:4] if quick else SERVE_BENCH_SLATE)
    clients = 4 if quick else 6
    warm_repeats = max(2, repetitions) if quick else max(4, 2 * repetitions)
    workers = 2 if quick else 3

    def request_payload(benchmark: str, seed: int = 0) -> Dict[str, object]:
        return {
            "benchmark": benchmark,
            "engine": "naySL",
            "kind": "check",
            "seed": seed,
            "timeout_seconds": 120.0,
        }

    tempdir = tempfile.mkdtemp(prefix="repro-serve-bench-")
    store = ResultStore(os.path.join(tempdir, "store.sqlite"))
    previous_store = install_result_store(store)
    fabric = Supervisor(
        workers,
        warm=False,
        breakers=BreakerBoard(threshold=100),
        retry=RetryPolicy(max_attempts=2, base_delay_seconds=0.05),
        name="serve-bench",
    )
    previous_fabric = install_fabric(fabric)
    server = make_server(
        port=0, solver=Solver(timeout_seconds=120.0), max_inflight=64
    )
    server_thread = _threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    started = time.monotonic()
    legs: List[Dict[str, object]] = []
    try:
        # Warm the workers (imports, caches) outside any timed leg; the
        # warmup benchmark is not in the slate, so the cold leg stays cold.
        _serve_drive(server, [request_payload(SERVE_WARMUP_BENCHMARK)], 1)

        def timed_leg(name: str, payloads, unique: int) -> Dict[str, object]:
            leg_started = time.perf_counter()
            rows = _serve_drive(server, payloads, clients)
            leg = _serve_leg(name, unique, rows, time.perf_counter() - leg_started)
            legs.append(leg)
            return leg

        # 1. cold — every request is a miss into an empty store.
        cold = timed_leg(
            "cold", [request_payload(name) for name in slate], unique=len(slate)
        )

        # 2. warm_repeat — the repeat-heavy leg: all hits, no admission
        # slot, no engine run, certificate included in every reply.
        warm_stream = [
            request_payload(slate[index % len(slate)])
            for index in range(len(slate) * warm_repeats)
        ]
        warm = timed_leg("warm_repeat", warm_stream, unique=len(slate))

        # 3. mixed — ~70% repeats / ~30% fresh variants (new seeds solve
        # identically but fingerprint differently, so they are real misses).
        mixed_stream: List[Dict[str, object]] = []
        fresh = 0
        for index in range(len(slate) * 3):
            benchmark = slate[index % len(slate)]
            if index % 10 < 3:
                fresh += 1
                mixed_stream.append(request_payload(benchmark, seed=1000 + index))
            else:
                mixed_stream.append(request_payload(benchmark))
        mixed = timed_leg("mixed", mixed_stream, unique=len(slate) + fresh)

        store_snapshot = store.snapshot()
    finally:
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=10)
        install_fabric(previous_fabric)
        fabric.shutdown()
        install_result_store(previous_store)
        store.close()
        shutil.rmtree(tempdir, ignore_errors=True)

    total_requests = sum(leg["requests"] for leg in legs)
    schema_valid = sum(leg["schema_valid"] for leg in legs)
    definitive = sum(leg["definitive"] for leg in legs)
    cold_rps = cold["requests_per_sec"]
    warm_rps = warm["requests_per_sec"]
    return {
        "clients": clients,
        "workers": workers,
        "slate": slate,
        "legs": legs,
        "store": store_snapshot,
        "summary": {
            "requests": total_requests,
            "schema_valid": schema_valid,
            "all_schema_valid": schema_valid == total_requests,
            "all_definitive": definitive == total_requests,
            "cold_rps": cold_rps,
            "warm_rps": warm_rps,
            "gate_warm_vs_cold_throughput": (
                round(warm_rps / cold_rps, 3) if cold_rps else None
            ),
            "warm_hit_ratio": warm["hit_ratio"],
            "mixed_hit_ratio": mixed["hit_ratio"],
            "warm_p50_ms": warm["p50_ms"],
            "warm_p99_ms": warm["p99_ms"],
            "cold_p50_ms": cold["p50_ms"],
            "cold_p99_ms": cold["p99_ms"],
            "total_seconds": round(time.monotonic() - started, 4),
        },
    }


# ---------------------------------------------------------------------------
# The suite table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """One ``repro-nay bench --suite`` entry."""

    #: ``(repetitions, quick) -> {rows key: rows, "summary": ..., ...}``.
    run: Callable[[int, bool], Report]
    #: The artifact a full run writes by default, relative to the working
    #: directory (the repo root when run from a checkout).  A quick run
    #: writes only where ``--out`` names.
    path: str
    #: Version of the artifact's schema (see docs/bench-artifacts.md).
    schema_version: int
    #: The report key holding the rows :func:`render` tabulates.
    rows: str
    #: ``(header, dotted path into a row, format template)`` per column.
    columns: Tuple[Tuple[str, str, str], ...]
    gates: Tuple[Gate, ...] = ()


#: The suites ``repro-nay bench --suite all`` runs (serve drives worker
#: processes and a server; run it explicitly).
TIMING_SUITES = ("domains", "grammar")

#: Every suite, with its gates.  Quick bars are looser than full ones where
#: a quick run's few, short samples on a shared CI runner are noisy.
SUITES: Dict[str, Suite] = {
    "domains": Suite(
        _run_domains,
        "BENCH_domains.json",
        1,
        "workloads",
        (
            ("workload", "name", "{}"),
            ("|E|", "examples", "{}"),
            ("ref ex/s", "reference.examples_per_sec", "{:.0f}"),
            ("py ex/s", "python.examples_per_sec", "{:.0f}"),
            ("np ex/s", "numpy.examples_per_sec", "{:.0f}"),
            ("np/ref", "numpy_vs_reference", "{:.1f}x"),
            ("np/py", "numpy_vs_python", "{:.1f}x"),
        ),
        (
            Gate("gate_numpy_speedup_e1000", ">=", full=5.0, quick=3.0),
            Gate("gate_python_small_e_slowdown", "<=", full=1.1, quick=1.3),
        ),
    ),
    "grammar": Suite(
        _run_grammar,
        "BENCH_grammar.json",
        1,
        "workloads",
        (
            ("workload", "name", "{}"),
            ("|P| off", "productions.before", "{}"),
            ("|P| oe", "productions.after", "{}"),
            ("evals off", "off.evaluations", "{}"),
            ("evals oe", "oe.evaluations", "{}"),
            ("reduction", "evaluation_reduction", "{:.1f}x"),
            ("wall oe/off", "wall_ratio_oe_vs_off", "{:.2f}x"),
            ("cands", "distinct_candidates", "{}"),
            ("memo c/s", "memoized.candidates_per_sec", "{:.0f}"),
            ("cold", "speedup_cold", "{:.1f}x"),
            ("warm", "speedup_warm", "{:.1f}x"),
        ),
        (
            Gate("gate_oe_evaluation_reduction", ">=", full=2.0, quick=2.0),
            Gate("gate_enumerator_speedup", ">=", full=1.0),
            Gate("gate_prune_wall_ratio", "<=", quick=1.25),
        ),
    ),
    "serve": Suite(
        _run_serve,
        "BENCH_serve.json",
        1,
        "legs",
        (
            ("leg", "name", "{}"),
            ("reqs", "requests", "{}"),
            ("uniq", "unique", "{}"),
            ("rps", "requests_per_sec", "{:.1f}"),
            ("p50ms", "p50_ms", "{:.1f}"),
            ("p99ms", "p99_ms", "{:.1f}"),
            ("hits", "store_hits", "{}"),
            ("ratio", "hit_ratio", "{:.2f}"),
        ),
        (
            Gate("gate_warm_vs_cold_throughput", ">=", full=5.0, quick=3.0),
            Gate("all_schema_valid", "is", full=True, quick=True),
            Gate("all_definitive", "is", full=True),
            Gate("warm_hit_ratio", ">=", full=1.0, quick=1.0),
        ),
    ),
}
