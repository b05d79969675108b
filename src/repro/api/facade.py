"""The public solving facade: one entry point for every consumer.

:class:`Solver` (and the module-level :func:`solve` convenience) accepts any
problem reference — a :class:`~repro.sygus.problem.SyGuSProblem`, a
:class:`~repro.suites.base.Benchmark`, a benchmark name, a ``.sl`` file path,
or inline SyGuS-IF text — normalizes it into a
:class:`~repro.api.wire.SolveRequest`, and executes it through exactly one
code path:

* :func:`execute_request` — resolve the problem and examples, dispatch to a
  single engine or the portfolio racer, return a
  :class:`~repro.api.wire.SolveResponse`;
* :func:`run_engine` — the shared engine-execution core (engine creation,
  wall-clock measurement, :class:`~repro.utils.errors.SolverLimitError`
  mapping, and the two-sided timeout policy).  The CLI, the batch/serve
  surface, the experiment runner and the pytest benchmarks all share this
  one engine/example/timeout plumbing.

Requests and responses are plain wire data, so :meth:`Solver.solve_batch`
can fan requests out to the supervised solve fabric (an ephemeral
:class:`~repro.engine.supervisor.Supervisor`, or the ambient fabric under
``serve``) and ``repro-nay serve`` can accept them over HTTP unchanged.
The experiment runner sends its cells through ``solve_batch`` too.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.wire import (
    SolveRequest,
    SolveResponse,
    error_response,
    grammar_stats,
    json_safe,
)
from repro.engine.registry import create_engine, engine_names
from repro.semantics.examples import ExampleSet
from repro.suites import get_benchmark, is_registered
from repro.suites.base import Benchmark
from repro.sygus import parse_sygus, parse_sygus_file, print_sygus
from repro.sygus.problem import SyGuSProblem
from repro.unreal.result import Verdict
from repro.utils.errors import ReproError, SolverLimitError

#: The reserved engine name that races every (or a chosen subset of the)
#: registered engines and returns the first definitive verdict.
PORTFOLIO_ENGINE = "portfolio"

#: The reserved engine name that runs engines cheap-to-expensive in-process,
#: escalating to the exact engine only on non-definitive verdicts
#: (see :func:`repro.api.portfolio.solve_staged`).
STAGED_ENGINE = "staged"

#: Both reserved multi-engine strategies.
STRATEGY_ENGINES = (PORTFOLIO_ENGINE, STAGED_ENGINE)

ProblemLike = Union[SyGuSProblem, Benchmark, SolveRequest, str, Path]


# ---------------------------------------------------------------------------
# Request resolution
# ---------------------------------------------------------------------------


def resolve_problem(
    request: SolveRequest,
) -> Tuple[SyGuSProblem, Optional[Benchmark]]:
    """The SyGuS problem a request refers to (plus its benchmark, if any)."""
    sources = [
        name
        for name, value in (
            ("benchmark", request.benchmark),
            ("path", request.path),
            ("sl", request.sl),
        )
        if value
    ]
    if len(sources) != 1:
        raise ReproError(
            "request must set exactly one of benchmark/path/sl "
            f"(got: {', '.join(sources) or 'none'})"
        )
    if request.benchmark:
        benchmark = get_benchmark(request.benchmark, request.suite)
        return benchmark.problem, benchmark
    if request.path:
        try:
            return parse_sygus_file(request.path), None
        except OSError as error:
            raise ReproError(f"cannot read {request.path!r}: {error}") from None
    return parse_sygus(request.sl or "", name="request"), None


def resolve_request_examples(
    request: SolveRequest,
    problem: SyGuSProblem,
    benchmark: Optional[Benchmark],
) -> ExampleSet:
    """The example set a request runs on, after applying its budgets.

    Precedence: explicit ``examples`` beat the benchmark's recorded witness
    examples.  ``example_count`` then resizes (truncate or deterministic
    top-up) and ``max_examples`` caps the result.
    """
    if request.examples is not None:
        examples = ExampleSet.from_dicts(request.examples)
    elif benchmark is not None and benchmark.witness_examples is not None:
        examples = benchmark.witness_examples
    else:
        examples = ExampleSet()
    if request.example_count is not None:
        examples = examples.resized(
            problem.variables, request.example_count, seed=request.seed
        )
    if request.max_examples is not None and len(examples) > request.max_examples:
        examples = ExampleSet(list(examples)[: request.max_examples])
    return examples


def resolve_kind(request: SolveRequest, examples: ExampleSet) -> str:
    """``auto`` becomes ``check`` when an example set is available."""
    if request.kind != "auto":
        return request.kind
    return "check" if len(examples) > 0 else "solve"


# ---------------------------------------------------------------------------
# The shared engine-execution core
# ---------------------------------------------------------------------------


def run_engine(
    engine_name: str,
    kind: str,
    problem: SyGuSProblem,
    examples: Optional[ExampleSet] = None,
    *,
    knobs: Optional[Dict[str, object]] = None,
    timeout: Optional[float] = None,
    seed: Optional[int] = None,
    max_iterations: Optional[int] = None,
    tags: Optional[Mapping[str, Any]] = None,
) -> SolveResponse:
    """Run one engine on one problem and report the outcome in wire form.

    This is the single place engines are instantiated and timed for solving:
    :func:`execute_request` (behind every single-engine request, portfolio
    leg and experiment cell) and the staged strategy call it.  A ``check``
    with no examples falls back to the full CEGIS ``solve`` (nothing to
    check against), matching the historical runner semantics.  The
    two-sided timeout policy of
    :func:`repro.engine.runner.apply_timeout_policy` is applied to the
    measured wall time: late definitive verdicts survive, undetermined late
    outcomes become ``timeout``.

    ``tags`` is the request's free-form tag mapping; its consumers here are
    the fault-injection layer (``tags["faults"]`` /
    :data:`repro.testing.faults.FAULTS_ENV`), consulted right at the engine
    boundary so chaos tests can make any leg crash, hang, stall or fail on
    demand, and the persistent result store's bypass rule.  When no fault
    channel is armed the hook is a single dict/env lookup — the production
    path pays nothing.

    When an ambient :class:`~repro.engine.store.ResultStore` is configured
    (installed, or named by ``REPRO_NAY_STORE``), this core is
    read-through/write-back: a semantically identical prior run is replayed
    from the store (marked ``solver_stats["store_hits"]``), and a fresh
    definitive verdict is recorded for later processes.  Fault-tagged runs
    bypass the store entirely — in both directions — so chaos traffic can
    never serve from or poison it.
    """
    from repro.engine.runner import apply_timeout_policy
    from repro.engine.store import get_result_store, response_cacheable
    from repro.logic.solver import runtime_counters
    from repro.testing.faults import faults_armed, inject_faults

    knobs = dict(knobs or {})
    knobs.setdefault("timeout_seconds", timeout)
    if seed is not None:
        knobs.setdefault("seed", seed)
    if max_iterations is not None:
        knobs.setdefault("max_iterations", max_iterations)
    # The grammar-reduction knob rides on the request's tag mapping (keeping
    # the wire schema unchanged); every registered engine accepts it.
    if tags and tags.get("prune") in ("reduce", "oe"):
        knobs.setdefault("prune", tags["prune"])
    examples = examples if examples is not None else ExampleSet()
    if len(examples) == 0:
        kind = "solve"  # a check with nothing to check against is a solve

    store = get_result_store()
    store_key: Optional[str] = None
    store_bypassed = False
    if store is not None:
        if faults_armed(tags):
            store.note_bypass()
            store_bypassed = True
        else:
            store_key = engine_store_key(
                engine_name, kind, problem, examples, knobs=knobs, tags=tags
            )
            cached = store.get(store_key, engine_name)
            if cached is not None:
                hit = SolveResponse.from_json(cached)
                hit.solver_stats = {**hit.solver_stats, "store_hits": 1}
                return hit

    engine = create_engine(engine_name, **knobs)

    solution = None
    iterations = 0
    certificate: Optional[Dict[str, Any]] = None
    details: Dict[str, Any] = {}
    fault_events: List[Dict[str, Any]] = []
    counters_before = runtime_counters()
    start = time.monotonic()
    try:
        # The fault-injection point: inside the timed region (a ``slow``
        # fault must trip the soft-timeout policy exactly like a slow
        # engine), before the engine runs (a ``crash`` kills the leg, not
        # half a solve).  Raising kinds propagate to ``execute_request``'s
        # error handling.
        if faults_armed(tags):
            fault_events = inject_faults(engine_name, tags)
        if kind == "solve":
            result = engine.solve(problem)
            verdict = result.verdict
            num_examples = result.num_examples
            iterations = result.iterations
            witness = result.examples
            details = result.details
            certificate = result.certificate
            if result.solution is not None:
                solution = result.solution.to_sexpr()
        else:
            result = engine.check(problem, examples)
            verdict = result.verdict
            num_examples = len(examples)
            witness = examples
            details = result.details
            certificate = result.certificate
    except SolverLimitError as error:
        verdict = Verdict.TIMEOUT
        num_examples = len(examples)
        witness = examples
        details = {"limit": str(error)}
    elapsed = time.monotonic() - start
    verdict = apply_timeout_policy(verdict, elapsed, timeout)
    # What the logic core did for this run: the counters are process-wide
    # and monotone, so the before/after delta is exactly this engine's work
    # (each batch worker / portfolio leg runs in its own process).  The one
    # multi-threaded consumer is ``serve`` (ThreadingHTTPServer): two
    # overlapping requests there share the counters, so their solver_stats
    # are approximate — acceptable for diagnostic counters.
    solver_stats = {
        key: value - counters_before.get(key, 0)
        for key, value in runtime_counters().items()
    }
    # Domains surface their effective knobs (e.g. the powerset example cap)
    # through details["domain_stats"]; fold the integer entries into
    # solver_stats so clients see them next to the logic-core counters.
    if isinstance(details, dict):
        domain_stats = details.pop("domain_stats", None)
        if isinstance(domain_stats, dict):
            solver_stats.update(
                {
                    key: value
                    for key, value in domain_stats.items()
                    if isinstance(value, int)
                }
            )
        # Grammar-reduction counters surface the same way: a check sets
        # details["grammar_stats"], a CEGIS solve nests it under
        # details["check"] (the last unrealizability check's details).
        grammar_counters = details.pop("grammar_stats", None)
        if grammar_counters is None and isinstance(details.get("check"), dict):
            grammar_counters = details["check"].pop("grammar_stats", None)
        if isinstance(grammar_counters, dict):
            solver_stats.update(
                {
                    key: value
                    for key, value in grammar_counters.items()
                    if isinstance(value, int)
                }
            )
    # Every attached certificate was already accepted by the independent
    # checker at build time (the builders refuse to ship anything else), so
    # its presence is what the counters record.
    if certificate is not None:
        solver_stats["certificate_checked"] = 1
        solver_stats["certificate_size"] = len(
            json.dumps(certificate, sort_keys=True)
        )
    if fault_events:
        solver_stats["faults_injected"] = len(fault_events)
        if isinstance(details, dict):
            details = {**details, "fault_events": fault_events}

    response = SolveResponse(
        verdict=verdict.value,
        engine=engine.name,
        kind=kind,
        problem=problem.name,
        elapsed_seconds=round(elapsed, 4),
        iterations=iterations,
        num_examples=num_examples,
        witness_examples=list(witness.as_dicts()),
        solution=solution,
        grammar=grammar_stats(problem),
        spec=problem.spec.description,
        solver_stats=solver_stats,
        certificate=json_safe(certificate) if certificate is not None else None,
        details=json_safe(details),
    )
    # Write-back: record the pristine payload *before* the provenance
    # markers below, so a later hit replays the response as solved.
    if store is not None:
        marks: Dict[str, int] = {}
        if store_bypassed:
            marks["store_bypasses"] = 1
        elif store_key is not None:
            marks["store_misses"] = 1
            payload = response.to_json()
            if response_cacheable(payload):
                stored, evicted = store.put(store_key, engine_name, payload)
                if stored:
                    marks["store_stores"] = 1
                if evicted:
                    marks["store_evictions"] = evicted
        if marks:
            response.solver_stats = {**response.solver_stats, **marks}
    return response


def engine_store_key(
    engine_name: str,
    kind: str,
    problem: SyGuSProblem,
    examples: ExampleSet,
    *,
    knobs: Mapping[str, Any],
    tags: Optional[Mapping[str, Any]] = None,
) -> str:
    """The persistent store's engine-tier key for one :func:`run_engine` call.

    Canonicalizes everything that determines the verdict: the engine, the
    run kind, the problem (printed back to SyGuS-IF — structural, so two
    routes to the same problem share entries), the resolved example set,
    the result-affecting knobs, and the semantic tags.  ``timeout_seconds``
    is deliberately *excluded*: the engines are deterministic, so a
    definitive verdict is budget-independent (a run that blew its budget is
    non-definitive and never stored), and the staged/portfolio legs call
    with shrinking remaining-budget timeouts that must all share one entry.
    Non-semantic tags are excluded by :func:`request_fingerprint` itself.
    """
    from repro.engine.results import request_fingerprint

    payload = {
        "engine": engine_name,
        "kind": kind,
        "problem": problem.name,
        "sl": print_sygus(problem),
        "examples": list(examples.as_dicts()),
        "knobs": {
            key: value
            for key, value in sorted(knobs.items())
            if key != "timeout_seconds"
        },
        "tags": dict(tags or {}),
    }
    return request_fingerprint(payload)


def execute_request(request: SolveRequest) -> SolveResponse:
    """Execute one wire request end to end (also the batch worker entry).

    Failures to resolve or solve become ``verdict="error"`` responses rather
    than exceptions, so a batch or a served endpoint degrades per-request.
    """
    try:
        if request.engine == PORTFOLIO_ENGINE:
            from repro.api.portfolio import solve_portfolio

            return solve_portfolio(request)
        if request.engine == STAGED_ENGINE:
            from repro.api.portfolio import solve_staged

            return solve_staged(request)
        problem, benchmark = resolve_problem(request)
        examples = resolve_request_examples(request, problem, benchmark)
        kind = resolve_kind(request, examples)
        response = run_engine(
            request.engine,
            kind,
            problem,
            examples,
            timeout=request.timeout_seconds,
            seed=request.seed,
            max_iterations=request.max_iterations,
            tags=request.tags,
        )
        response.suite = benchmark.suite if benchmark is not None else None
        response.tags = dict(request.tags)
        return response
    except ReproError as error:
        return error_response(str(error), request)
    except Exception as error:  # noqa: BLE001 — a service degrades per-request
        # Wire-valid but type-skewed payloads (e.g. a string timeout) surface
        # here; the batch pool and the HTTP endpoint must get a well-formed
        # error response, not a crashed worker or a dropped connection.
        return error_response(f"internal error: {type(error).__name__}: {error}", request)


def timeout_response(request: SolveRequest) -> SolveResponse:
    """The wire response recorded when a request blows its hard guard."""
    return SolveResponse(
        verdict="timeout",
        engine=request.engine,
        kind="solve" if request.kind == "auto" else request.kind,
        problem=request.benchmark or request.path or "",
        suite=request.suite,
        elapsed_seconds=float(request.timeout_seconds or 0.0),
        tags=dict(request.tags),
    )


# ---------------------------------------------------------------------------
# The Solver facade
# ---------------------------------------------------------------------------


class Solver:
    """Service-grade front door over the engine registry.

    Construction fixes the defaults (engine, budgets, parallelism); every
    ``solve``/``check``/``solve_batch`` call may override them per request.
    ``engine="portfolio"`` races engines on the supervised solve fabric and
    returns the first definitive verdict; ``solve_batch`` with
    ``workers > 1`` fans requests out on the same fabric.

    >>> Solver().solve("plane1").verdict
    'unrealizable'
    """

    def __init__(
        self,
        engine: str = "naySL",
        *,
        timeout_seconds: Optional[float] = None,
        seed: int = 0,
        workers: int = 1,
        max_iterations: Optional[int] = None,
        max_examples: Optional[int] = None,
        engines: Optional[Sequence[str]] = None,
    ):
        self.engine = engine
        self.timeout_seconds = timeout_seconds
        self.seed = seed
        self.workers = max(1, int(workers))
        self.max_iterations = max_iterations
        self.max_examples = max_examples
        self.engines = list(engines) if engines is not None else None

    # -- request construction -------------------------------------------------

    def request(self, problem: ProblemLike, **overrides: Any) -> SolveRequest:
        """Normalize any problem reference into a wire request.

        Accepts a :class:`SyGuSProblem` (serialized through the SyGuS-IF
        printer so the request stays wire-clean), a :class:`Benchmark` (by
        name when it is the registry's own object, otherwise printed like a
        problem), a ``.sl`` path, inline SyGuS-IF text, a benchmark name, or
        an existing :class:`SolveRequest` (returned with overrides applied).
        """
        examples = overrides.pop("examples", None)
        if isinstance(examples, ExampleSet):
            examples = list(examples.as_dicts())
        if isinstance(problem, SolveRequest):
            if examples is not None:
                overrides["examples"] = examples
            return replace(problem, **overrides) if overrides else problem
        base: Dict[str, Any] = {
            "engine": self.engine,
            "engines": list(self.engines) if self.engines is not None else None,
            "timeout_seconds": self.timeout_seconds,
            "seed": self.seed,
            "max_iterations": self.max_iterations,
            "max_examples": self.max_examples,
        }
        if examples is not None:
            base["examples"] = examples
        base.update(overrides)
        if isinstance(problem, SyGuSProblem):
            return SolveRequest(sl=print_sygus(problem), **base)
        if isinstance(problem, Benchmark):
            if is_registered(problem):
                return SolveRequest(benchmark=problem.name, suite=problem.suite, **base)
            # Any other benchmark (hand-built, or reusing a registered name)
            # travels as its problem, with its witness examples unless the
            # caller chose examples.
            if "examples" not in base and problem.witness_examples is not None:
                base["examples"] = list(problem.witness_examples.as_dicts())
            return SolveRequest(sl=print_sygus(problem.problem), **base)
        if isinstance(problem, Path):
            return SolveRequest(path=str(problem), **base)
        text = str(problem)
        if "(" in text:
            return SolveRequest(sl=text, **base)
        if text.endswith(".sl") or os.path.sep in text or os.path.exists(text):
            return SolveRequest(path=text, **base)
        return SolveRequest(benchmark=text, **base)

    def _with_defaults(self, request: SolveRequest) -> SolveRequest:
        """Fill budgets a raw wire request (e.g. from HTTP) left unset."""
        filled = {}
        if request.timeout_seconds is None and self.timeout_seconds is not None:
            filled["timeout_seconds"] = self.timeout_seconds
        if request.max_iterations is None and self.max_iterations is not None:
            filled["max_iterations"] = self.max_iterations
        if request.max_examples is None and self.max_examples is not None:
            filled["max_examples"] = self.max_examples
        return replace(request, **filled) if filled else request

    def prepare(self, request: SolveRequest) -> SolveRequest:
        """Public form of the default-filling step.

        The serve endpoint calls it before fingerprinting a request for
        in-flight dedup, so two requests that only differ in budgets the
        solver would fill identically share a fingerprint.
        """
        return self._with_defaults(request)

    # -- solving --------------------------------------------------------------

    def solve(self, problem: ProblemLike, **overrides: Any) -> SolveResponse:
        """Solve one problem (kind ``auto``: check when examples exist)."""
        return execute_request(self.request(problem, **overrides))

    def check(
        self,
        problem: ProblemLike,
        examples: Optional[Union[ExampleSet, Iterable[Dict[str, int]]]] = None,
        **overrides: Any,
    ) -> SolveResponse:
        """One unrealizability check over a fixed example set."""
        if examples is not None and not isinstance(examples, ExampleSet):
            examples = ExampleSet.from_dicts(examples)
        return execute_request(
            self.request(problem, kind="check", examples=examples, **overrides)
        )

    def solve_request(self, request: SolveRequest) -> SolveResponse:
        """Execute a wire request, applying this solver's default budgets."""
        return execute_request(self._with_defaults(request))

    def solve_batch(
        self,
        problems: Sequence[ProblemLike],
        workers: Optional[int] = None,
        **overrides: Any,
    ) -> List[SolveResponse]:
        """Solve many requests, optionally on the supervised solve fabric.

        Responses come back in request order regardless of worker count; a
        request that blows its hard wall-clock guard yields a ``timeout``
        response instead of stalling the batch.  With ``workers > 1`` the
        batch runs on the ambient fabric when one is installed (``serve``),
        otherwise on an ephemeral :class:`~repro.engine.supervisor.Supervisor`
        — either way a crashed worker is replaced and its request retried
        instead of poisoning the whole batch.

        When a persistent result store is configured, already-solved
        fingerprints are served from it *before* any dispatch (marked
        ``solver_stats["store_hits"]``) and fresh definitive responses are
        recorded back, so a re-run of the same batch costs one store read
        per request instead of one solve.
        """
        from repro.engine.results import request_fingerprint
        from repro.engine.store import (
            get_result_store,
            pristine_response,
            response_cacheable,
        )
        from repro.testing.faults import faults_armed

        requests = [
            self._with_defaults(self.request(problem, **overrides))
            for problem in problems
        ]
        workers = self.workers if workers is None else max(1, int(workers))

        # Pre-filter: serve already-solved fingerprints from the store so
        # only genuinely new work reaches the supervisor.
        store = get_result_store()
        responses: List[Optional[SolveResponse]] = [None] * len(requests)
        fingerprints: List[Optional[str]] = [None] * len(requests)
        pending: List[int] = []
        for index, request in enumerate(requests):
            if store is None:
                pending.append(index)
                continue
            if faults_armed(request.tags):
                store.note_bypass()
                pending.append(index)
                continue
            fingerprints[index] = request_fingerprint(request.to_json())
            cached = store.get(fingerprints[index], request.engine)
            if cached is None:
                pending.append(index)
                continue
            hit = SolveResponse.from_json(cached)
            hit.solver_stats = {**hit.solver_stats, "store_hits": 1}
            responses[index] = hit

        todo = [requests[index] for index in pending]
        if workers == 1 or len(todo) <= 1:
            solved = [execute_request(request) for request in todo]
        else:
            from repro.engine.supervisor import Supervisor, get_fabric

            fabric = get_fabric()
            if fabric is not None:
                solved = fabric.map(todo)
            else:
                with Supervisor(workers, warm=False, name="batch") as ephemeral:
                    solved = ephemeral.map(todo)
        for index, response in zip(pending, solved):
            responses[index] = response
            if store is not None and fingerprints[index] is not None:
                payload = response.to_json()
                if response_cacheable(payload):
                    store.put(
                        fingerprints[index],
                        requests[index].engine,
                        pristine_response(payload),
                    )
        return [response for response in responses if response is not None]

    # -- certificates ---------------------------------------------------------

    def verify(
        self,
        response: SolveResponse,
        problem: Optional[ProblemLike] = None,
        *,
        require_certificate: bool = False,
    ) -> bool:
        """Machine-check a definitive response, either polarity.

        ``unrealizable``: when the response carries a ``certificate``
        (schema version 3) it is re-verified by the independent static
        checker (:func:`repro.analysis.certcheck.check_certificate`) —
        no engine, fixpoint driver or solver is re-run.  Responses without
        one (older payloads) fall back to re-running the exact naySL check
        on the witness example set, which certifies the verdict by Lem. 3.5;
        ``require_certificate=True`` disables that fallback and rejects
        certificate-less responses outright.

        ``realizable``: the claimed ``solution`` is parsed back from its
        s-expression, checked to be derivable from the problem's grammar,
        and evaluated on the witness examples through the frozen
        :func:`repro.semantics.reference.reference_evaluate` twin — not the
        production evaluator — so a bug in the columnar evaluation core
        cannot confirm its own output.

        Responses for inline/path problems need the ``problem`` argument
        (the response alone only names benchmarks).
        """
        if response.verdict == "realizable":
            return self._verify_realizable(response, problem)
        if response.verdict != "unrealizable":
            return False
        if response.certificate is not None:
            from repro.analysis import check_certificate

            resolved = self._resolve_verify_problem(response, problem)
            if resolved is None:
                return False
            return bool(check_certificate(resolved, response.certificate))
        if require_certificate or not response.witness_examples:
            return False
        source: ProblemLike = problem if problem is not None else response.problem
        overrides: Dict[str, Any] = {"engine": "naySL"}
        if problem is None:
            overrides["suite"] = response.suite
        check = self.check(
            source,
            examples=ExampleSet.from_dicts(response.witness_examples),
            **overrides,
        )
        return check.verdict == "unrealizable"

    def _resolve_verify_problem(
        self, response: SolveResponse, problem: Optional[ProblemLike]
    ) -> Optional[SyGuSProblem]:
        """The :class:`SyGuSProblem` a response's verdict is about."""
        source: ProblemLike = problem if problem is not None else response.problem
        if isinstance(source, SyGuSProblem):
            return source
        if isinstance(source, Benchmark):
            return source.problem
        request = self.request(source)
        if problem is None and response.suite and request.benchmark:
            request = replace(request, suite=response.suite)
        try:
            resolved, _ = resolve_problem(request)
        except ReproError:
            return None
        return resolved

    def _verify_realizable(
        self, response: SolveResponse, problem: Optional[ProblemLike]
    ) -> bool:
        """Re-check a ``realizable`` response's witness term independently."""
        from repro.grammar.terms import term_from_sexpr
        from repro.semantics.reference import reference_evaluate
        from repro.utils.errors import GrammarError

        if not response.solution or not response.witness_examples:
            return False
        resolved = self._resolve_verify_problem(response, problem)
        if resolved is None:
            return False
        try:
            term = term_from_sexpr(response.solution)
        except GrammarError:
            return False
        if not resolved.grammar.contains(term):
            return False
        examples = ExampleSet.from_dicts(response.witness_examples)
        outputs = reference_evaluate(term, examples)
        return all(
            resolved.spec.holds_on_example(example, value)
            for example, value in zip(examples, outputs)
        )

    def available_engines(self) -> List[str]:
        """Registry engines plus the reserved portfolio/staged strategies.

        >>> from repro.api import Solver
        >>> engines = Solver().available_engines()
        >>> [name for name in ("naySL", "nayInt", "portfolio", "staged")
        ...  if name in engines]
        ['naySL', 'nayInt', 'portfolio', 'staged']
        """
        return list(engine_names()) + list(STRATEGY_ENGINES)


def solve(problem: ProblemLike, **overrides: Any) -> SolveResponse:
    """Module-level convenience: ``Solver().solve(...)``."""
    return Solver().solve(problem, **overrides)
