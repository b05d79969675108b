"""The batched experiment runner: tasks in, deterministic rows out.

Every table and figure of §8 is a list of independent measurements.  The
runner makes that explicit: an experiment is a declarative list of
:class:`Task` values — *references* to an engine (by registry name), a
benchmark (by suite name or scaling size) and an example set (witness or
``x = 1..k``) — executed in-process or fanned out on the supervised solve
fabric (:mod:`repro.engine.supervisor`).

Design points:

* **One execution core.**  A ``check``/``solve`` task becomes a wire request
  (:meth:`repro.api.facade.Solver.request`): a registered benchmark travels
  by name, an unregistered scaling size as SyGuS text.  Every request goes
  through :meth:`~repro.api.facade.Solver.solve_batch` — in-process for
  ``workers=1``, on an ephemeral fabric for ``workers > 1`` — and one row
  builder maps each response onto the experiment row shape.
* **Raw GFA solves stay in-process.**  ``gfa`` tasks are the semi-linear
  solver timings of Figs. 2 and 4.  Each takes milliseconds, and running
  them beside busy fabric workers would skew the very timings they report,
  so they run after the fabric has shut down.
* **Deterministic ordering.**  Rows come back in task order regardless of
  worker count or completion order; ``workers=1`` and ``workers=N`` produce
  identical stable fields (see :mod:`repro.engine.results`).
* **Two-sided timeout policy.**  A run that finishes past its deadline but
  with a definitive two-sided verdict (``UNREALIZABLE`` *or* ``REALIZABLE``)
  keeps that verdict — the old harness back-dated late ``REALIZABLE``
  answers to ``TIMEOUT``, losing information.  Only ``UNKNOWN`` and
  resource-limit outcomes are reported as ``TIMEOUT``.
* **Failures are rows.**  Engines receive the task timeout as their soft
  deadline.  On the fabric, a worker still busy at the hard guard
  (:func:`~repro.engine.supervisor.hard_guard`) is killed and its row is a
  ``timeout`` whose ``seconds`` is the task timeout; a worker that crashes
  is replaced and the request retried, and a cell that crashes on every
  attempt is an ``error`` row.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.engine.results import ResultsStore
from repro.semantics.examples import ExampleSet
from repro.suites.base import Benchmark
from repro.unreal.result import Verdict

if TYPE_CHECKING:  # import cycle guard: repro.api imports repro.engine
    from repro.api.facade import Solver
    from repro.api.wire import SolveRequest, SolveResponse


@dataclass
class Task:
    """One measurement: an engine (or raw GFA solve) on one benchmark.

    Benchmarks are referenced by name so tasks stay plain data:
    ``scaling_size`` selects :func:`repro.suites.scaling.scaling_benchmark`,
    otherwise ``benchmark``/``suite`` go through
    :func:`repro.suites.get_benchmark`.  ``example_count`` selects the
    ``x = 1..k`` scaling example set; ``None`` means the benchmark's recorded
    witness examples.  ``tags`` are copied onto the row.
    """

    kind: str = "check"  # "check" | "solve" | "gfa"
    engine: Optional[str] = None
    benchmark: Optional[str] = None
    suite: Optional[str] = None
    scaling_size: Optional[int] = None
    example_count: Optional[int] = None
    timeout: Optional[float] = None
    stratify: bool = True  # only for kind="gfa"
    tags: Dict[str, object] = field(default_factory=dict)


def resolve_benchmark(task: Task) -> Benchmark:
    if task.scaling_size is not None:
        from repro.suites.scaling import scaling_benchmark

        return scaling_benchmark(task.scaling_size)
    if task.benchmark is None:
        raise ValueError("task references no benchmark")
    from repro.suites import get_benchmark

    return get_benchmark(task.benchmark, task.suite)


def resolve_examples(task: Task, benchmark: Benchmark) -> ExampleSet:
    if task.example_count is not None:
        from repro.suites.scaling import example_set

        return example_set(task.example_count)
    return benchmark.witness_examples or ExampleSet()


def apply_timeout_policy(
    verdict: Verdict, elapsed: float, timeout: Optional[float]
) -> Verdict:
    """Late two-sided verdicts survive; only undetermined outcomes time out."""
    if timeout is not None and elapsed > timeout:
        if verdict not in (Verdict.UNREALIZABLE, Verdict.REALIZABLE):
            return Verdict.TIMEOUT
    return verdict


def _request(solver: Solver, task: Task, benchmark: Benchmark) -> SolveRequest:
    """The wire request of a ``check``/``solve`` task.

    Examples travel only when the task picks an ``x = 1..k`` set; otherwise
    the request resolves the benchmark's witness examples itself.
    """
    overrides: Dict[str, Any] = {}
    if task.example_count is not None:
        overrides["examples"] = resolve_examples(task, benchmark)
    return solver.request(
        benchmark,
        engine=task.engine or "naySL",
        timeout_seconds=task.timeout,
        kind=task.kind,
        **overrides,
    )


def _row(
    task: Task, benchmark: Benchmark, response: SolveResponse
) -> Dict[str, object]:
    """The experiment row of a ``check``/``solve`` task's wire response."""
    examples = response.num_examples
    if not examples and task.kind == "check":
        # A crashed or killed cell never finished its check, so its response
        # carries no example count; report the set the check was given.
        examples = len(resolve_examples(task, benchmark))
    return {
        "suite": benchmark.suite,
        "benchmark": benchmark.name,
        "tool": response.engine,
        "verdict": response.verdict,
        "seconds": response.elapsed_seconds,
        "examples": examples,
        "paper_seconds": benchmark.paper.get(response.engine),
        **task.tags,
    }


def _execute_gfa(task: Task, benchmark: Benchmark) -> Dict[str, object]:
    """A raw semi-linear-set solve (the Fig. 2 / Fig. 4 measurement)."""
    from repro.unreal.lia import solve_lia_gfa

    examples = resolve_examples(task, benchmark)
    start = time.monotonic()
    solution = solve_lia_gfa(
        benchmark.problem.grammar, examples, stratify=task.stratify
    )
    elapsed = time.monotonic() - start
    return {
        "benchmark": benchmark.name,
        "nonterminals": benchmark.problem.grammar.num_nonterminals,
        "examples": len(examples),
        "seconds": round(elapsed, 4),
        "semilinear_size": solution.start_value.size,
        "stratify": task.stratify,
        **task.tags,
    }


class ExperimentRunner:
    """Execute a task list in-process or on the solve fabric.

    ``workers=1`` (the default) runs in-process — fully deterministic and
    the best mode for measurement runs.  ``workers>1`` hands the
    ``check``/``solve`` tasks to :meth:`repro.api.facade.Solver.solve_batch`,
    which fans them out on an ephemeral supervised fabric; ``gfa`` tasks
    always run in-process.  Rows come back in task order either way.
    ``out`` names a directory to persist rows to as JSONL (see
    :class:`~repro.engine.results.ResultsStore`).
    """

    def __init__(
        self,
        workers: int = 1,
        timeout: Optional[float] = None,
        out: Optional[str] = None,
    ):
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.store = ResultsStore(out) if out else None

    def run(
        self, tasks: Sequence[Task], experiment: str = "adhoc"
    ) -> List[Dict[str, object]]:
        from repro.api.facade import Solver

        # Copy tasks when filling in the default timeout so a task list can
        # be reused across runners with different timeouts.
        tasks = [
            replace(task, timeout=self.timeout) if task.timeout is None else task
            for task in tasks
        ]
        benchmarks = [resolve_benchmark(task) for task in tasks]
        solver = Solver()
        requests = [
            _request(solver, task, benchmark)
            for task, benchmark in zip(tasks, benchmarks)
            if task.kind != "gfa"
        ]
        # The solves finish (and the fabric shuts down) before any gfa task
        # starts, so the raw solver timings never share the CPU with workers.
        workers = min(self.workers, len(requests), os.cpu_count() or 2)
        responses = iter(solver.solve_batch(requests, workers=workers))
        rows = [
            _execute_gfa(task, benchmark)
            if task.kind == "gfa"
            else _row(task, benchmark, next(responses))
            for task, benchmark in zip(tasks, benchmarks)
        ]
        if self.store is not None:
            self.store.append(experiment, rows, meta={"workers": self.workers})
        return rows
