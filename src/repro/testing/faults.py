"""Fault injection at the engine boundary.

The resilient solve fabric (:mod:`repro.engine.supervisor`) treats engine
failure as a normal input: workers crash, legs hang, payloads arrive
corrupted.  None of that can be *tested* unless the repo can simulate it on
demand — this module is that switch.  A fault plan is a comma-separated list
of specs::

    kind@target[:arg][#count]

* ``kind``   — one of :data:`FAULT_KINDS`:

  - ``crash``   — the worker process dies instantly (``os._exit``), the
    moral equivalent of a segfault.  Outside a marked worker process the
    crash degrades to :class:`InjectedFaultError` so an in-process engine
    run (``staged``, a bare ``Solver``) reports an ``error`` verdict
    instead of killing its host;
  - ``hang``    — the leg stops making progress (a very long sleep); only
    the parent's hard wall-clock guard can end it.  Refused outside worker
    processes for the same reason as ``crash``;
  - ``slow``    — sleep ``arg`` seconds (default 1.0), then run normally;
  - ``corrupt`` — the worker's *reply payload* is mangled into something
    the wire format rejects (applied at the process boundary by
    :func:`corrupt_response`, not inside the engine);
  - ``oom``     — allocate ``arg`` MiB (default 64), then raise
    ``MemoryError``, modelling an allocation the box cannot absorb;
  - ``error``   — raise :class:`InjectedFaultError`, a *deterministic*
    engine failure (the kind retry policies must never retry).

* ``target`` — an engine name, or ``*`` for every engine;
* ``arg``    — seconds for ``slow``, MiB for ``oom``;
* ``count``  — trigger at most ``count`` times in this process
  (per-process state; see :func:`reset_fault_state`).

Two activation channels, checked in this order:

1. a request's ``tags["faults"]`` — travels in the wire payload, so it
   crosses process boundaries (spawned workers included) and scopes the
   fault to exactly one request;
2. the ``REPRO_NAY_FAULTS`` environment variable — inherited by every
   worker the solve fabric starts, arming a whole process tree.

:func:`repro.api.facade.run_engine` consults :func:`inject_faults` right at
the engine boundary (after the engine is built, before it runs) whenever
either channel is armed; the fabric worker loop applies
:func:`corrupt_response` where the reply crosses the pipe.  Injected events
are reported on the response (``solver_stats["faults_injected"]`` and
``details["fault_events"]``), so a test can count what it dealt.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.utils.errors import ReproError

#: Environment variable holding a process-wide fault plan.
FAULTS_ENV = "REPRO_NAY_FAULTS"

#: Environment marker set in solve-fabric worker processes.  ``crash`` and
#: ``hang`` only run for real where a supervising parent can reap the
#: damage; elsewhere they degrade to :class:`InjectedFaultError`.
WORKER_ENV = "REPRO_NAY_IN_WORKER"

#: The injectable fault kinds.
FAULT_KINDS = ("crash", "hang", "slow", "corrupt", "oom", "error")

#: How long a ``hang`` sleeps — far beyond any hard guard, so only the
#: supervisor's timeout discipline (or SIGKILL) ends it.
HANG_SECONDS = 3600.0

#: Exit status of an injected ``crash`` (visible in worker reaping logs).
CRASH_EXIT_STATUS = 70


class InjectedFaultError(ReproError):
    """A deterministic injected engine failure (``error`` kind, or a
    ``crash``/``hang`` refused outside a worker process)."""


@dataclass
class FaultSpec:
    """One parsed ``kind@target[:arg][#count]`` entry."""

    kind: str
    target: str = "*"
    arg: Optional[float] = None
    count: Optional[int] = None
    #: Identity of the plan entry, for per-process trigger budgets.
    key: str = field(default="", compare=False)

    def matches(self, engine_name: str) -> bool:
        return self.target in ("*", engine_name)


def parse_faults(text: str) -> List[FaultSpec]:
    """Parse a fault plan string; malformed entries fail loudly.

    >>> [spec.kind for spec in parse_faults("crash@naySL, slow@*:0.5#2")]
    ['crash', 'slow']
    """
    specs: List[FaultSpec] = []
    for raw in text.split(","):
        entry = raw.strip()
        if not entry:
            continue
        body, count = entry, None
        if "#" in body:
            body, count_text = body.rsplit("#", 1)
            count = int(count_text)
        arg: Optional[float] = None
        if "@" in body:
            kind, target = body.split("@", 1)
        else:
            kind, target = body, "*"
        if ":" in target:
            target, arg_text = target.split(":", 1)
            arg = float(arg_text)
        kind = kind.strip()
        target = target.strip() or "*"
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in {entry!r}; "
                f"known kinds: {', '.join(FAULT_KINDS)}"
            )
        specs.append(FaultSpec(kind=kind, target=target, arg=arg, count=count, key=entry))
    return specs


#: Remaining trigger budget per ``#count``-limited plan entry, per process.
_BUDGETS: Dict[str, int] = {}


def reset_fault_state() -> None:
    """Forget all per-process ``#count`` trigger budgets (test isolation)."""
    _BUDGETS.clear()


def _take_budget(spec: FaultSpec) -> bool:
    """Consume one trigger from a ``#count``-limited spec; True if it fires."""
    if spec.count is None:
        return True
    remaining = _BUDGETS.get(spec.key, spec.count)
    if remaining <= 0:
        return False
    _BUDGETS[spec.key] = remaining - 1
    return True


def _plan_text(tags: Optional[Mapping[str, Any]]) -> str:
    """The active fault plan: the request's tag first, then the environment."""
    if tags:
        tagged = tags.get("faults")
        if tagged:
            return str(tagged)
    return os.environ.get(FAULTS_ENV, "")


def faults_armed(tags: Optional[Mapping[str, Any]] = None) -> bool:
    """Cheap guard callers use to keep the production path zero-cost."""
    return bool(tags and tags.get("faults")) or bool(os.environ.get(FAULTS_ENV))


def in_worker_process() -> bool:
    return bool(os.environ.get(WORKER_ENV))


def mark_worker_process() -> None:
    """Mark this process as a solve-fabric worker (crash faults arm)."""
    os.environ[WORKER_ENV] = "1"


def inject_faults(
    engine_name: str, tags: Optional[Mapping[str, Any]] = None
) -> List[Dict[str, Any]]:
    """Apply every matching fault at the engine boundary.

    Returns the events for faults that let execution continue (``slow``);
    ``crash`` never returns, ``hang`` effectively never returns, ``oom`` and
    ``error`` raise.  ``corrupt`` is a wire-boundary fault and is skipped
    here (see :func:`corrupt_response`).
    """
    events: List[Dict[str, Any]] = []
    plan = _plan_text(tags)
    if not plan:
        return events
    for spec in parse_faults(plan):
        if not spec.matches(engine_name) or spec.kind == "corrupt":
            continue
        if not _take_budget(spec):
            continue
        if spec.kind == "crash":
            if in_worker_process():
                os._exit(CRASH_EXIT_STATUS)
            raise InjectedFaultError(
                f"injected crash for engine {engine_name!r} "
                "(degraded to an error: not in a worker process)"
            )
        if spec.kind == "hang":
            if in_worker_process():
                time.sleep(spec.arg if spec.arg is not None else HANG_SECONDS)
            raise InjectedFaultError(
                f"injected hang for engine {engine_name!r} "
                "(degraded to an error: not in a worker process)"
            )
        if spec.kind == "slow":
            delay = spec.arg if spec.arg is not None else 1.0
            time.sleep(delay)
            events.append(
                {"kind": "slow", "engine": engine_name, "seconds": delay}
            )
        elif spec.kind == "oom":
            mib = int(spec.arg) if spec.arg is not None else 64
            ballast = bytearray(mib * 1024 * 1024)
            ballast[::4096] = b"x" * len(ballast[::4096])  # touch the pages
            del ballast
            raise MemoryError(f"injected oom for engine {engine_name!r} ({mib} MiB)")
        elif spec.kind == "error":
            raise InjectedFaultError(f"injected error for engine {engine_name!r}")
    return events


def corrupt_response(
    payload: Dict[str, Any],
    engine_name: str,
    tags: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Mangle a reply payload when a ``corrupt`` fault matches.

    Called by the fabric worker loop where the response crosses the process
    boundary.  The replacement is deliberately *not* wire-conformant, so the
    parent's ``SolveResponse.from_json`` rejects it — which the supervisor
    treats as a transient worker failure (retry, replace the worker).
    """
    plan = _plan_text(tags)
    if not plan:
        return payload
    for spec in parse_faults(plan):
        if spec.kind != "corrupt" or not spec.matches(engine_name):
            continue
        if not _take_budget(spec):
            continue
        return {"verdict": "@@corrupted@@", "injected_fault": "corrupt"}
    return payload
