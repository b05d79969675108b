"""Portfolio solving: race engines, or escalate through staged tiers.

The paper's evaluation (§8) shows no single engine dominating — exact naySL
decides every LIA/CLIA instance but pays for big grammars, approximate
nayHorn answers in milliseconds when its abstraction suffices, and NOPE
trails by a constant factor.  Two strategies turn that complementary
strength into latency:

* ``engine="portfolio"`` (:func:`solve_portfolio`) — every selected engine
  runs the same request as one :meth:`Supervisor.solve` call on the
  supervised solve fabric (:mod:`repro.engine.supervisor`); the first
  **definitive** verdict (``unrealizable``/``realizable``) wins, and its
  reply sets the race's cancel event, which stops the losers (their
  workers killed).  Each leg is a fabric request like any other: a crashed
  leg is retried, a leg whose circuit breaker is open is refused (listed
  under ``details["portfolio"]["skipped"]``) until a half-open probe
  re-admits it, and only a leg that crashed on every attempt or hit the
  hard guard counts against its breaker.
* ``engine="staged"`` (:func:`solve_staged`) — engines run *in order of
  cost*, in-process: the cheap abstract domains (``nayInt``, ``nayFin``)
  first, escalating to ``nayHorn`` and finally exact ``naySL`` only while
  the verdict stays non-definitive.  Same verdicts as the racing portfolio
  (every definitive engine is sound, so whoever answers first agrees with
  whoever would have answered later) at a fraction of the work: most
  suite instances never reach an exact engine.  Per-stage counters flow
  into ``SolveResponse.solver_stats`` (``staged_stages_run``,
  ``staged_exact_calls``, ...) next to the aggregated logic-core counters.

Portfolio requests cross the process boundary in wire form
(``SolveRequest.to_json``) and outcomes come back the same way, so the racer
exercises exactly the format ``repro-nay serve`` speaks.

When no engine is definitive the best non-definitive outcome is reported
(``unknown`` beats ``timeout`` beats ``error``), preserving soundness:
neither strategy ever upgrades an approximate engine's ``unknown``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional

from repro.api.wire import SolveRequest, SolveResponse, error_response
from repro.engine.registry import engine_names
from repro.utils.stats import NOTED

#: Preference order for the reported outcome when no engine is definitive.
_LOSER_ORDER = {"unknown": 0, "timeout": 1, "error": 2}

#: Cheap-to-expensive escalation order of the staged strategy.  Cheap
#: abstract domains first (fixpoints over coarse lattices, little or no ILP
#: work), the symbolic numeric abstraction next, the exact engine last.
#: ``nope`` is deliberately absent: it computes the same answers as
#: ``nayHorn``, by the same check.
STAGED_DEFAULT_ORDER = ("nayInt", "nayFin", "nayHorn", "naySL")

#: Engines whose runs the staged strategy counts as *exact-engine calls* in
#: ``solver_stats`` — the quantity staging exists to minimise.
EXACT_ENGINES = frozenset({"naySL"})


def portfolio_engines(request: SolveRequest) -> List[str]:
    """The engines a request races: its explicit pool, or all registered."""
    if request.engines:
        return list(request.engines)
    return list(engine_names())


def _best_loser(
    finished: Dict[str, SolveResponse], engines: List[str], request: SolveRequest
) -> SolveResponse:
    """The outcome to report when the race produced no definitive verdict."""
    ranked = sorted(
        (name for name in engines if name in finished),
        key=lambda name: (_LOSER_ORDER.get(finished[name].verdict, 3), engines.index(name)),
    )
    if ranked:
        return finished[ranked[0]]
    from repro.api.facade import timeout_response

    return timeout_response(request)


def solve_portfolio(request: SolveRequest) -> SolveResponse:
    """Race the request across engines on the solve fabric.

    Every leg is one :meth:`Supervisor.solve` call on its own thread, so a
    leg gets the fabric's retries, breaker policy and hard guard like any
    other request.  The first definitive verdict sets the race's cancel
    event, which stops the losers (their workers are killed).  A leg whose
    breaker refuses it is skipped.  Races run on the ambient fabric when
    one is installed (``repro-nay serve``), sharing its pre-warmed workers;
    otherwise an ephemeral one-worker-per-leg supervisor is forked for the
    race, deliberately ignoring the core count — a race only works if every
    leg starts promptly, and on an oversubscribed box the legs timeshare,
    which still lets the fastest engine win.
    """
    from concurrent.futures import ThreadPoolExecutor, as_completed

    from repro.api.facade import execute_request
    from repro.engine.supervisor import FabricCancelledError, Supervisor, get_fabric
    from repro.testing.faults import in_worker_process

    engines = portfolio_engines(request)
    if not engines:
        return error_response("portfolio has no engines to race", request)

    start = time.monotonic()
    if len(engines) == 1:
        response = execute_request(replace(request, engine=engines[0]))
        response.engines_raced = list(engines)
        return response

    if in_worker_process():
        # A daemonic fabric worker cannot fork race legs of its own; degrade
        # to the in-process staged ladder over the same engine pool.
        response = solve_staged(replace(request, engines=list(engines)))
        response.details = {**response.details, "portfolio_degraded": "staged"}
        return response

    fabric = get_fabric()
    ephemeral = fabric is None
    if ephemeral:
        # Forked before the leg threads start: with threads running, the
        # fabric spawns instead of forking.
        fabric = Supervisor(len(engines), warm=False, name="race")
    cancel = threading.Event()

    def stop_losers() -> None:
        cancel.set()
        if ephemeral:
            fabric.shutdown()  # the losers die now, and nothing replaces them

    finished: Dict[str, SolveResponse] = {}
    refused: Dict[str, Dict[str, object]] = {}
    winner: Optional[SolveResponse] = None
    with ThreadPoolExecutor(len(engines), thread_name_prefix="race") as legs:
        futures = {
            legs.submit(
                fabric.solve, replace(request, engine=name, engines=None), cancel
            ): name
            for name in engines
        }
        try:
            for future in as_completed(futures):
                try:
                    response = future.result()
                except FabricCancelledError:
                    continue  # a loser, stopped once the winner arrived
                name = futures[future]
                if "breaker" in response.details:
                    refused[name] = response.details["breaker"]
                    continue
                finished[name] = response
                if winner is None and response.is_definitive:
                    winner = response
                    stop_losers()
        finally:
            stop_losers()

    if len(refused) == len(engines):
        response = error_response(
            "portfolio: every selected engine's circuit breaker is open "
            f"({', '.join(sorted(refused))})",
            request,
        )
        response.engines_raced = list(engines)
        response.details = {
            **response.details,
            "portfolio": {
                "winner": None,
                "race_seconds": 0.0,
                "finished": [],
                "cancelled": sorted(engines),
                "skipped": sorted(refused),
            },
            "breakers": dict(sorted(refused.items())),
        }
        return response

    race_seconds = time.monotonic() - start
    response = winner if winner is not None else _best_loser(finished, engines, request)
    response.engines_raced = list(engines)
    portfolio_details: Dict[str, object] = {
        "winner": response.engine if winner is not None else None,
        "race_seconds": round(race_seconds, 4),
        "finished": sorted(finished),
        "cancelled": sorted(set(engines) - set(finished)),
    }
    if refused:
        portfolio_details["skipped"] = sorted(refused)
    crashed = sorted(
        name for name, leg in finished.items() if leg.details.get("transient")
    )
    if crashed:
        portfolio_details["crashed"] = crashed
    response.details = {**response.details, "portfolio": portfolio_details}
    return response


# ---------------------------------------------------------------------------
# The staged strategy
# ---------------------------------------------------------------------------


def staged_engines(request: SolveRequest) -> List[str]:
    """The escalation order a staged request runs: its pool, or the default.

    An explicit ``engines`` list is honoured verbatim (and in order), so a
    caller can stage any subset; otherwise the default cheap-to-expensive
    order runs, restricted to engines actually registered.
    """
    if request.engines:
        return list(request.engines)
    registered = set(engine_names())
    return [name for name in STAGED_DEFAULT_ORDER if name in registered]


def solve_staged(request: SolveRequest) -> SolveResponse:
    """Escalate through the engines in order; first definitive verdict wins.

    Runs in-process (the cheap stages answer in milliseconds, so process
    fan-out would cost more than it saves).  The problem and example set
    are resolved **once** and shared by every stage — a staged request over
    inline SyGuS text or a ``.sl`` path parses it a single time, not once
    per leg.  Every stage receives the wall-clock budget *remaining* from
    the request's ``timeout_seconds``; when the budget runs dry before a
    definitive verdict the best non-definitive outcome seen so far is
    reported, exactly like the racing portfolio's loser handling.
    """
    from repro.api.facade import (
        resolve_kind,
        resolve_problem,
        resolve_request_examples,
        run_engine,
    )
    from repro.engine.supervisor import get_breakers
    from repro.utils.errors import ReproError

    engines = staged_engines(request)
    if not engines:
        return error_response("staged portfolio has no engines to run", request)

    try:
        problem, benchmark = resolve_problem(request)
        examples = resolve_request_examples(request, problem, benchmark)
        kind = resolve_kind(request, examples)
    except ReproError as error:
        return error_response(str(error), request)
    except Exception as error:  # noqa: BLE001 — degrade like execute_request
        return error_response(
            f"internal error: {type(error).__name__}: {error}", request
        )

    breakers = get_breakers()
    start = time.monotonic()
    finished: Dict[str, SolveResponse] = {}
    stages: List[Dict[str, object]] = []
    skipped: List[str] = []
    solver_stats: Dict[str, int] = {}
    winner: Optional[SolveResponse] = None
    exact_calls = 0
    for name in engines:
        remaining = None
        if request.timeout_seconds is not None:
            remaining = request.timeout_seconds - (time.monotonic() - start)
            if remaining <= 0:
                break
        # The ladder degrades around tripped engines: skip while a breaker
        # is open, escalate to the next stage.  Checked lazily, per stage,
        # so a half-open probe is only consumed by a stage that actually
        # runs.
        if not breakers.allow(name):
            skipped.append(name)
            continue
        try:
            response = run_engine(
                name,
                kind,
                problem,
                examples,
                timeout=remaining,
                seed=request.seed,
                max_iterations=request.max_iterations,
                tags=request.tags,
            )
        except ReproError as error:  # e.g. an unknown engine in the pool
            response = error_response(str(error), request, engine=name)
        except Exception as error:  # noqa: BLE001 — a bad leg must not kill the ladder
            response = error_response(
                f"internal error: {type(error).__name__}: {error}",
                request,
                engine=name,
            )
        finished[name] = response
        # In-process stages cannot crash the process, so the staged ladder
        # never *trips* a breaker: every stage is a reply.
        breakers.for_engine(name).record_reply(response.verdict)
        exact_calls += 1 if name in EXACT_ENGINES else 0
        for key, value in response.solver_stats.items():
            if key.startswith(NOTED):
                solver_stats[key] = value
            else:
                solver_stats[key] = solver_stats.get(key, 0) + value
        stages.append(
            {
                "engine": name,
                "verdict": response.verdict,
                "elapsed_seconds": response.elapsed_seconds,
            }
        )
        if response.is_definitive:
            winner = response
            break

    total_seconds = time.monotonic() - start
    if not finished and skipped:
        response = error_response(
            "staged: every selected engine's circuit breaker is open "
            f"({', '.join(skipped)})",
            request,
        )
        response.details = {**response.details, "breakers": breakers.snapshot()}
        response.engines_raced = []
        response.details = {
            **response.details,
            "staged": {
                "winner": None,
                "order": list(engines),
                "stages": [],
                "skipped": skipped,
                "total_seconds": round(total_seconds, 4),
            },
        }
        return response
    response = winner if winner is not None else _best_loser(finished, engines, request)
    response.suite = benchmark.suite if benchmark is not None else response.suite
    response.tags = dict(request.tags)
    response.engines_raced = list(finished)
    response.solver_stats = {
        **solver_stats,
        "staged_stages_run": len(stages),
        "staged_exact_calls": exact_calls,
        "staged_cheap_calls": len(stages) - exact_calls,
    }
    staged_details: Dict[str, object] = {
        "winner": response.engine if winner is not None else None,
        "order": list(engines),
        "stages": stages,
        "escalated_past": [entry["engine"] for entry in stages[:-1]],
        "total_seconds": round(total_seconds, 4),
    }
    if skipped:
        staged_details["skipped"] = skipped
    response.details = {**response.details, "staged": staged_details}
    return response
