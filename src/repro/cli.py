"""Command line entry point: ``repro-nay`` (also ``python -m repro.cli``).

Subcommands:

* ``solve <file.sl>``       — run the NAY CEGIS loop on a SyGuS-IF problem;
* ``check <benchmark>``     — run one unrealizability check on a named
  benchmark's witness example set with a chosen engine (``--examples N``
  resizes the set deterministically);
* ``batch <dir>``           — solve every ``.sl`` file under a directory,
  optionally on the solve fabric (``--workers``) and/or with a multi-engine
  strategy (``--tool portfolio`` races, ``--tool staged`` escalates
  cheap-to-expensive); ``--verify-certificates`` re-checks every
  unrealizable response's proof with the independent checker;
* ``verify <response.json>`` — re-check a saved ``SolveResponse``: the
  schema-v3 certificate through :mod:`repro.analysis.certcheck`
  (``--certificate`` makes that mandatory), a realizable solution through
  the frozen reference evaluator;
* ``certify``               — sweep the benchmark registry, re-checking the
  certificate behind every unrealizable verdict (the CI gate);
* ``serve``                 — start the JSON HTTP endpoint
  (``POST /solve``, ``GET /engines``, ``GET /healthz``);
* ``list``                  — list the benchmark suites;
* ``engines``               — list the registered engines (+ the portfolio
  and staged strategies);
* ``domains``               — list the registered abstract domains;
* ``grammar <op> <ref>``    — the tree-automaton grammar algebra:
  ``compile`` (RTG -> DFTA statistics), ``intersect`` (product
  construction of two grammars), ``prune`` (observational-equivalence /
  language-preserving reduction with witnesses), ``count`` (distinct terms
  per size) and ``stats`` (grammar + automaton + minimized sizes);
* ``experiments <name>``    — shorthand for ``python -m repro.experiments``;
* ``bench --suite S``       — run a perf harness (``domains``,
  ``grammar``, ``serve`` or ``all``), write its versioned
  ``BENCH_*.json`` artifact (a ``--quick`` run writes only to ``--out``)
  and check the suite's gates (:data:`repro.perf.SUITES`); exits 1 when a
  gate fails.

``solve``/``check``/``batch``/``serve`` accept ``--store PATH`` (or the
``REPRO_NAY_STORE`` environment variable) to name a persistent result
store: a SQLite file in which definitive responses — certificates included
— are recorded by fingerprint and replayed across runs and processes
(:mod:`repro.engine.store`).

``solve``/``check``/``batch`` accept ``--prune off|reduce|oe`` to shrink
the grammar (via the tree-automaton core) before any engine builds its
equation systems; the knob rides on the request's tag mapping, so the wire
schema is unchanged.

``solve``, ``check`` and ``batch`` accept ``--json`` to emit the versioned
wire format (:mod:`repro.api.wire`) instead of text.  All solving resolves
through :class:`repro.api.Solver`, so the CLI carries no engine/example/
timeout plumbing of its own.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro import experiments
from repro.api import PORTFOLIO_ENGINE, STAGED_ENGINE, SolveResponse, Solver
from repro.api.service import DEFAULT_HOST, DEFAULT_PORT, serve
from repro.domains.registry import domain_names
from repro.engine.registry import engine_names
from repro.semantics.examples import ExampleSet
from repro.suites import all_benchmarks


def _nonnegative(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError("example count must be >= 0")
    return parsed


def _positive(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return parsed


def _add_solving_arguments(parser: argparse.ArgumentParser, tools: List[str]) -> None:
    parser.add_argument("--tool", default="naySL", choices=tools)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument(
        "--max-iterations", type=int, default=None, help="CEGIS iteration budget"
    )
    parser.add_argument(
        "--max-examples", type=int, default=None, help="cap the example set size"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the versioned JSON wire format"
    )
    parser.add_argument(
        "--prune",
        default="off",
        choices=["off", "reduce", "oe"],
        help="tree-automaton grammar reduction before equation building "
        "(reduce: language-preserving; oe: merge observationally "
        "equivalent productions on the example set)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent result store (SQLite file; definitive verdicts are "
        "replayed across runs and processes; also settable via "
        "REPRO_NAY_STORE)",
    )


def _solver_for(arguments: argparse.Namespace) -> Solver:
    return Solver(
        engine=arguments.tool,
        timeout_seconds=arguments.timeout,
        seed=arguments.seed,
        max_iterations=arguments.max_iterations,
        max_examples=arguments.max_examples,
    )


def _solving_tags(arguments: argparse.Namespace) -> dict:
    """Request tags implied by the solving flags (just ``--prune`` today)."""
    if getattr(arguments, "prune", "off") != "off":
        return {"prune": arguments.prune}
    return {}


def _emit(response: SolveResponse, as_json: bool) -> int:
    """Print one response (text or wire form); non-zero on error responses."""
    if as_json:
        print(response.to_json_text(indent=2))
        return 1 if response.error else 0
    if response.error:
        print(response.error, file=sys.stderr)
        return 1
    if response.kind == "check":
        examples = ExampleSet.from_dicts(response.witness_examples)
        print(f"verdict: {response.verdict} on {examples}")
    else:
        print(f"verdict: {response.verdict}")
        if response.solution is not None:
            print(f"solution: {response.solution}")
        print(f"examples used: {response.num_examples}")
    if response.engines_raced:
        print(f"winner: {response.engine} (raced {', '.join(response.engines_raced)})")
    print(f"time: {response.elapsed_seconds:.2f}s")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    engines = engine_names()
    tools = engines + [PORTFOLIO_ENGINE, STAGED_ENGINE]
    parser = argparse.ArgumentParser(prog="repro-nay", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="run the CEGIS loop on a .sl file")
    solve.add_argument("path")
    _add_solving_arguments(solve, tools)

    check = subparsers.add_parser("check", help="check a named benchmark")
    check.add_argument("benchmark")
    _add_solving_arguments(check, tools)
    check.add_argument(
        "--examples",
        type=_nonnegative,
        default=None,
        help="resize the witness example set (truncate or top up, seeded)",
    )

    batch = subparsers.add_parser("batch", help="solve every .sl file under a directory")
    batch.add_argument("directory")
    _add_solving_arguments(batch, tools)
    batch.add_argument(
        "--workers", type=int, default=1, help="solve-fabric workers (1 = in-process)"
    )
    batch.add_argument(
        "--verify-certificates",
        action="store_true",
        help="re-check every unrealizable response's certificate with the "
        "independent checker; exit non-zero if any is missing or rejected",
    )

    verify = subparsers.add_parser(
        "verify", help="re-check a saved SolveResponse JSON payload"
    )
    verify.add_argument(
        "response", help="path to a SolveResponse JSON file, or '-' for stdin"
    )
    verify.add_argument(
        "--problem",
        default=None,
        help="the .sl file (or benchmark name) the response is about; "
        "needed when the response does not name a benchmark",
    )
    verify.add_argument(
        "--certificate",
        action="store_true",
        help="require the schema-v3 certificate payload; without this flag "
        "certificate-less unrealizable responses fall back to an engine re-run",
    )

    certify = subparsers.add_parser(
        "certify",
        help="sweep the benchmark registry and re-check every certificate",
    )
    certify.add_argument(
        "--tool",
        default="all",
        choices=engines + ["all"],
        help="one engine, or 'all' to sweep every registered engine",
    )
    certify.add_argument(
        "--quick", action="store_true", help="small benchmark slice for CI gating"
    )
    certify.add_argument("--timeout", type=float, default=600.0)
    certify.add_argument(
        "--json", action="store_true", help="emit one JSON summary object"
    )

    server = subparsers.add_parser("serve", help="start the JSON HTTP endpoint")
    server.add_argument("--host", default=DEFAULT_HOST)
    server.add_argument("--port", type=int, default=DEFAULT_PORT)
    server.add_argument(
        "--timeout", type=float, default=600.0, help="default per-request timeout"
    )
    server.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pre-warmed solve-fabric worker processes "
        "(default: auto-sized; 0 disables the fabric)",
    )
    server.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admission control: concurrent requests before 503 + Retry-After",
    )
    server.add_argument(
        "--max-request-bytes",
        type=int,
        default=None,
        help="largest accepted POST /solve body (HTTP 413 beyond it)",
    )
    server.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent result store (SQLite file the HTTP handler answers "
        "from and records into; also settable via REPRO_NAY_STORE)",
    )

    subparsers.add_parser("list", help="list all benchmarks")
    subparsers.add_parser("engines", help="list the registered engines")
    subparsers.add_parser("domains", help="list the registered abstract domains")

    grammar = subparsers.add_parser(
        "grammar", help="the tree-automaton grammar algebra"
    )
    grammar_ops = grammar.add_subparsers(dest="grammar_op", required=True)

    g_compile = grammar_ops.add_parser(
        "compile", help="compile an RTG to a bottom-up tree automaton"
    )
    g_compile.add_argument("ref", help="benchmark name or .sl file")
    g_compile.add_argument(
        "--show", action="store_true", help="print the automaton's rules"
    )
    g_compile.add_argument("--json", action="store_true")

    g_intersect = grammar_ops.add_parser(
        "intersect", help="product construction of two grammars"
    )
    g_intersect.add_argument("left", help="benchmark name or .sl file")
    g_intersect.add_argument("right", help="benchmark name or .sl file")
    g_intersect.add_argument(
        "--max-size", type=int, default=6, help="size bound for the term count"
    )
    g_intersect.add_argument("--json", action="store_true")

    g_prune = grammar_ops.add_parser(
        "prune", help="observational-equivalence / language-preserving reduction"
    )
    g_prune.add_argument("ref", help="benchmark name or .sl file")
    g_prune.add_argument(
        "--mode", default="oe", choices=["reduce", "oe"], help="merge aggressiveness"
    )
    g_prune.add_argument(
        "--examples",
        type=_nonnegative,
        default=None,
        help="resize the witness example set the oe merge evaluates on",
    )
    g_prune.add_argument("--json", action="store_true")

    g_count = grammar_ops.add_parser(
        "count", help="count distinct terms of each size"
    )
    g_count.add_argument("ref", help="benchmark name or .sl file")
    g_count.add_argument("--max-size", type=int, default=8)
    g_count.add_argument("--json", action="store_true")

    g_stats = grammar_ops.add_parser(
        "stats", help="grammar, automaton and minimized-automaton sizes"
    )
    g_stats.add_argument("ref", help="benchmark name or .sl file")
    g_stats.add_argument("--json", action="store_true")

    experiment = subparsers.add_parser("experiments", help="regenerate tables/figures")
    experiment.add_argument("name", choices=sorted(experiments.EXPERIMENTS) + ["all"])
    experiment.add_argument("--full", action="store_true")
    experiment.add_argument("--workers", type=int, default=1)
    experiment.add_argument("--out", default=None)

    bench = subparsers.add_parser(
        "bench",
        help="run a perf harness, write its BENCH_*.json artifact and check "
        "its gates",
    )
    bench.add_argument(
        "--suite",
        choices=["domains", "grammar", "serve", "all"],
        required=True,
        help="domains: the columnar evaluation core over an example-count "
        "sweep (BENCH_domains.json); grammar: tree-automaton pruning + "
        "memoized-enumerator deltas (BENCH_grammar.json); serve: "
        "concurrent-client load over the real HTTP server with the "
        "persistent result store — cold vs warm latency/throughput "
        "(BENCH_serve.json); all: every timing suite (serve excluded; run "
        "it explicitly)",
    )
    bench.add_argument(
        "--repeat", type=_positive, default=3, help="timed repetitions per measurement"
    )
    bench.add_argument(
        "--quick", action="store_true", help="small sweep for CI smoke runs"
    )
    bench.add_argument(
        "--out",
        default=None,
        help="artifact path (defaults to the suite's BENCH_*.json for a full "
        "run and to no file for a --quick run; '-' to skip writing; only "
        "valid for a single suite)",
    )

    arguments = parser.parse_args(argv)
    if not getattr(arguments, "store", None):
        return _run_command(arguments, engines, tools)

    # --store installs the persistent result store for this process (rather
    # than plumbing it through every call): the doors that look requests up
    # and record them, Solver and the serve handler, run here, so worker
    # processes never need the path.  It is uninstalled and closed on
    # return, so an embedding process keeps the store it had.
    from repro.engine.store import ResultStore, install_result_store

    store = ResultStore(arguments.store)
    previous = install_result_store(store)
    try:
        return _run_command(arguments, engines, tools)
    finally:
        install_result_store(previous)
        store.close()


def _run_command(
    arguments: argparse.Namespace, engines: List[str], tools: List[str]
) -> int:
    if arguments.command == "solve":
        solver = _solver_for(arguments)
        response = solver.solve(
            Path(arguments.path), kind="solve", tags=_solving_tags(arguments)
        )
        return _emit(response, arguments.json)

    if arguments.command == "check":
        solver = _solver_for(arguments)
        # Resolution failures (unknown benchmark, exhausted example top-up)
        # come back as verdict="error" responses; _emit routes them to
        # stderr with exit code 1.
        response = solver.solve(
            arguments.benchmark,
            example_count=arguments.examples,
            tags=_solving_tags(arguments),
        )
        if response.kind == "solve" and not arguments.json and not response.error:
            print("benchmark has no recorded witness examples; running CEGIS instead")
            print(f"verdict: {response.verdict}")
            return 0
        return _emit(response, arguments.json)

    if arguments.command == "batch":
        return _run_batch(arguments)

    if arguments.command == "verify":
        return _run_verify(arguments)

    if arguments.command == "certify":
        return _run_certify(arguments, engines)

    if arguments.command == "serve":
        from repro.api.service import DEFAULT_MAX_INFLIGHT, DEFAULT_MAX_REQUEST_BYTES

        solver = Solver(timeout_seconds=arguments.timeout)
        return serve(
            arguments.host,
            arguments.port,
            solver,
            workers=arguments.workers,
            max_inflight=(
                arguments.max_inflight
                if arguments.max_inflight is not None
                else DEFAULT_MAX_INFLIGHT
            ),
            max_request_bytes=(
                arguments.max_request_bytes
                if arguments.max_request_bytes is not None
                else DEFAULT_MAX_REQUEST_BYTES
            ),
        )

    if arguments.command == "list":
        for benchmark in all_benchmarks(include_scaling=True):
            stats = benchmark.problem.grammar
            print(
                f"{benchmark.suite:13s} {benchmark.name:20s} "
                f"|N|={stats.num_nonterminals:3d} |delta|={stats.num_productions:3d}"
            )
        return 0

    if arguments.command == "engines":
        for name in tools:
            print(name)
        return 0

    if arguments.command == "domains":
        for name in domain_names():
            print(name)
        return 0

    if arguments.command == "grammar":
        return _run_grammar(arguments)

    if arguments.command == "bench":
        from repro import perf

        names = perf.TIMING_SUITES if arguments.suite == "all" else (arguments.suite,)
        if arguments.out is not None and len(names) > 1:
            print("--out requires a single --suite", file=sys.stderr)
            return 1
        failed = False
        for name in names:
            report = perf.run_suite(name, arguments.repeat, arguments.quick)
            print(perf.render(report))
            # A quick run never lands on the committed full artifact: it
            # writes only where --out names.
            path = arguments.out or (None if arguments.quick else perf.SUITES[name].path)
            if path not in (None, "-"):
                print(f"wrote {perf.write_report(report, path)}")
            for passed, line in perf.check_gates(report):
                print(line)
                failed = failed or not passed
        return 1 if failed else 0

    if arguments.command == "experiments":
        passthrough = [arguments.name, "--workers", str(arguments.workers)]
        if arguments.full:
            passthrough.append("--full")
        if arguments.out:
            passthrough.extend(["--out", arguments.out])
        return experiments.main(passthrough)

    return 1


def _run_batch(arguments: argparse.Namespace) -> int:
    directory = Path(arguments.directory)
    if not directory.is_dir():
        print(f"not a directory: {directory}", file=sys.stderr)
        return 1
    paths = sorted(directory.rglob("*.sl"))
    if not paths:
        print(f"no .sl files under {directory}", file=sys.stderr)
        return 1
    solver = _solver_for(arguments)
    responses = solver.solve_batch(
        paths, workers=arguments.workers, kind="solve", tags=_solving_tags(arguments)
    )
    if arguments.json:
        print(json.dumps([response.to_json() for response in responses], indent=2))
    else:
        rows = [
            {
                "file": str(path),
                "verdict": response.verdict,
                "engine": response.engine,
                "seconds": response.elapsed_seconds,
                "examples": response.num_examples,
            }
            for path, response in zip(paths, responses)
        ]
        print(experiments.render_rows(rows))
        for path, response in zip(paths, responses):
            if response.error:
                print(f"{path}: {response.error}", file=sys.stderr)
    failed = any(response.error for response in responses)
    if arguments.verify_certificates:
        solver = Solver()
        for path, response in zip(paths, responses):
            if response.verdict != "unrealizable":
                continue
            if not solver.verify(response, path, require_certificate=True):
                state = "missing" if response.certificate is None else "rejected"
                print(f"{path}: certificate {state}", file=sys.stderr)
                failed = True
    return 1 if failed else 0


def _resolve_grammar_ref(ref: str):
    """The (problem, witness examples) a grammar-algebra operand names."""
    from repro.api.facade import resolve_problem, resolve_request_examples

    request = Solver().request(ref)
    problem, benchmark = resolve_problem(request)
    examples = resolve_request_examples(request, problem, benchmark)
    return problem, examples


def _run_grammar(arguments: argparse.Namespace) -> int:
    """The ``repro-nay grammar`` family over the tree-automaton core."""
    from repro.grammar import TreeAutomaton, prune_grammar
    from repro.utils.errors import ReproError

    def emit(payload: dict, lines: List[str]) -> int:
        if arguments.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
        return 0

    try:
        if arguments.grammar_op == "compile":
            problem, _ = _resolve_grammar_ref(arguments.ref)
            automaton = TreeAutomaton.from_grammar(problem.grammar)
            stats = automaton.statistics()
            lines = [
                f"{problem.grammar.name}: {stats['states']} states, "
                f"{stats['rules']} rules, {stats['symbols']} symbols, "
                f"deterministic={stats['deterministic']}"
            ]
            if getattr(arguments, "show", False):
                lines.append(str(automaton))
            return emit({"grammar": problem.grammar.name, **stats}, lines)

        if arguments.grammar_op == "intersect":
            left, _ = _resolve_grammar_ref(arguments.left)
            right, _ = _resolve_grammar_ref(arguments.right)
            a = TreeAutomaton.from_grammar(left.grammar)
            b = TreeAutomaton.from_grammar(right.grammar)
            product = a.intersect(b)
            counts = product.count_terms(max_size=arguments.max_size)
            total = sum(counts.values())
            payload = {
                "left": {"grammar": left.grammar.name, **a.statistics()},
                "right": {"grammar": right.grammar.name, **b.statistics()},
                "product": product.statistics(),
                "terms_up_to_size": {str(k): v for k, v in sorted(counts.items())},
                "total_terms": total,
            }
            lines = [
                f"left  {left.grammar.name}: {a.num_states} states, {a.num_rules} rules",
                f"right {right.grammar.name}: {b.num_states} states, {b.num_rules} rules",
                f"product: {product.num_states} states, {product.num_rules} rules",
                f"shared terms up to size {arguments.max_size}: {total}",
            ]
            return emit(payload, lines)

        if arguments.grammar_op == "prune":
            problem, examples = _resolve_grammar_ref(arguments.ref)
            if arguments.examples is not None:
                examples = examples.resized(problem.variables, arguments.examples, seed=0)
            pruned, report = prune_grammar(
                problem.grammar, examples, mode=arguments.mode
            )
            payload = {
                "grammar": problem.grammar.name,
                "mode": report.mode,
                "states": {"before": report.states_before, "after": report.states_after},
                "productions": {
                    "before": report.productions_before,
                    "after": report.productions_after,
                    "pruned": report.productions_pruned,
                },
                "merged": {
                    dropped.name: kept.name for dropped, kept in report.merged.items()
                },
                "witnesses": dict(report.witnesses),
            }
            lines = [
                f"{problem.grammar.name} [{report.mode}] "
                f"states {report.states_before} -> {report.states_after}, "
                f"productions {report.productions_before} -> {report.productions_after} "
                f"({report.productions_pruned} pruned)",
            ]
            for dropped, kept in sorted(
                report.merged.items(), key=lambda item: item[0].name
            ):
                witness = report.witnesses.get(kept.name, "?")
                lines.append(f"  {dropped.name} -> {kept.name}  (witness: {witness})")
            return emit(payload, lines)

        if arguments.grammar_op == "count":
            problem, _ = _resolve_grammar_ref(arguments.ref)
            automaton = TreeAutomaton.from_grammar(problem.grammar)
            counts = automaton.count_terms(max_size=arguments.max_size)
            total = sum(counts.values())
            payload = {
                "grammar": problem.grammar.name,
                "counts": {str(k): v for k, v in sorted(counts.items())},
                "total": total,
            }
            lines = [
                f"size {size}: {count}" for size, count in sorted(counts.items())
            ] + [f"total distinct terms up to size {arguments.max_size}: {total}"]
            return emit(payload, lines)

        if arguments.grammar_op == "stats":
            problem, examples = _resolve_grammar_ref(arguments.ref)
            automaton = TreeAutomaton.from_grammar(problem.grammar)
            minimized = automaton.minimize()
            _, oe_report = prune_grammar(problem.grammar, examples, mode="oe")
            payload = {
                "grammar": {
                    "name": problem.grammar.name,
                    "nonterminals": problem.grammar.num_nonterminals,
                    "productions": problem.grammar.num_productions,
                },
                "automaton": automaton.statistics(),
                "minimized": minimized.statistics(),
                "oe_prune": oe_report.counters(),
            }
            lines = [
                f"grammar   {problem.grammar.name}: "
                f"|N|={problem.grammar.num_nonterminals} "
                f"|delta|={problem.grammar.num_productions}",
                f"automaton: {automaton.num_states} states, {automaton.num_rules} rules",
                f"minimized: {minimized.num_states} states, {minimized.num_rules} rules",
                f"oe prune : {oe_report.counters()}",
            ]
            return emit(payload, lines)
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 1
    return 1


def _run_verify(arguments: argparse.Namespace) -> int:
    if arguments.response == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(arguments.response).read_text()
        except OSError as error:
            print(f"cannot read {arguments.response}: {error}", file=sys.stderr)
            return 1
    try:
        response = SolveResponse.from_json_text(text)
    except Exception as error:  # noqa: BLE001 — malformed payloads exit cleanly
        print(f"invalid response payload: {error}", file=sys.stderr)
        return 1
    problem = None
    if arguments.problem is not None:
        raw = arguments.problem
        problem = Path(raw) if raw.endswith(".sl") else raw
    verified = Solver().verify(
        response, problem, require_certificate=arguments.certificate
    )
    source = "certificate" if response.certificate is not None else "witness re-run"
    if verified:
        print(f"verified: {response.verdict} ({source})")
        return 0
    print(f"NOT verified: {response.verdict}", file=sys.stderr)
    return 1


def _run_certify(arguments: argparse.Namespace, engines: List[str]) -> int:
    """Sweep the registry: every unrealizable verdict must carry a
    certificate the independent checker accepts."""
    from repro.analysis import check_certificate

    names = engines if arguments.tool == "all" else [arguments.tool]
    benchmarks = [
        benchmark
        for benchmark in all_benchmarks(include_scaling=True)
        if benchmark.witness_examples is not None
        and len(benchmark.witness_examples) > 0
    ]
    if arguments.quick:
        benchmarks = benchmarks[:10]
    solver = Solver(timeout_seconds=arguments.timeout)
    certified = {name: 0 for name in names}
    unrealizable = {name: 0 for name in names}
    failures: List[dict] = []
    for benchmark in benchmarks:
        for name in names:
            response = solver.check(benchmark, engine=name)
            if response.verdict != "unrealizable":
                continue
            unrealizable[name] += 1
            if response.certificate is None:
                failures.append(
                    {"benchmark": benchmark.name, "engine": name, "why": "missing"}
                )
                continue
            result = check_certificate(benchmark.problem, response.certificate)
            if result:
                certified[name] += 1
            else:
                failures.append(
                    {
                        "benchmark": benchmark.name,
                        "engine": name,
                        "why": f"rejected: {result.reason}",
                    }
                )
    if arguments.json:
        print(
            json.dumps(
                {
                    "benchmarks": len(benchmarks),
                    "engines": names,
                    "unrealizable": unrealizable,
                    "certified": certified,
                    "failures": failures,
                },
                indent=2,
            )
        )
    else:
        for name in names:
            print(
                f"{name:10s} {certified[name]}/{unrealizable[name]} "
                "unrealizable verdicts certified"
            )
        for failure in failures:
            print(
                f"{failure['benchmark']} [{failure['engine']}]: {failure['why']}",
                file=sys.stderr,
            )
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
