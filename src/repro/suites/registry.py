"""The process-wide benchmark index, used by every surface that names one.

Benchmarks are constants, so the four suites are built once per process, on
first use and under a lock, into one index: a tuple per suite and a
``(name, suite)`` map.  :func:`get_benchmark` — the resolution call behind
every named request (``Solver``, the experiment runner, ``perf.py``) — is a
dict lookup, and :func:`all_benchmarks` / :func:`benchmarks_by_suite` hand
out fresh lists of the shared objects.  A solve-fabric worker builds the
index in its warm-up lookup, before it reports ready.

Shared objects are why :class:`~repro.suites.base.Benchmark` is frozen.
``engine.cache.clear_cache`` leaves the index alone: it holds inputs, not
derived results.  A ``Benchmark`` that is not the index's own object for its
``(name, suite)`` (see :func:`is_registered`) is sent to the engines as
SyGuS text, not by name.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.suites.base import Benchmark
from repro.suites.limited_const import limited_const_suite
from repro.suites.limited_if import limited_if_suite
from repro.suites.limited_plus import limited_plus_suite
from repro.suites.scaling import SUITE as SCALING_SUITE, scaling_suite
from repro.utils.errors import ReproError


class _Index(NamedTuple):
    #: Suite name -> its benchmarks, in lookup order (LimitedPlus, LimitedIf,
    #: LimitedConst, Scaling).
    suites: Dict[str, Tuple[Benchmark, ...]]
    by_key: Dict[Tuple[str, str], Benchmark]
    #: Name -> the first benchmark of that name in suite order.
    by_name: Dict[str, Benchmark]


_INDEX: Optional[_Index] = None
_INDEX_LOCK = threading.Lock()


def _build_index() -> _Index:
    suites = {
        "LimitedPlus": tuple(limited_plus_suite()),
        "LimitedIf": tuple(limited_if_suite()),
        "LimitedConst": tuple(limited_const_suite()),
        SCALING_SUITE: tuple(scaling_suite()),
    }
    by_key: Dict[Tuple[str, str], Benchmark] = {}
    by_name: Dict[str, Benchmark] = {}
    for benchmarks in suites.values():
        for benchmark in benchmarks:
            by_key[(benchmark.name, benchmark.suite)] = benchmark
            by_name.setdefault(benchmark.name, benchmark)
    return _Index(suites, by_key, by_name)


def _index() -> _Index:
    global _INDEX
    index = _INDEX
    if index is None:
        with _INDEX_LOCK:
            if _INDEX is None:
                _INDEX = _build_index()
            index = _INDEX
    return index


def benchmarks_by_suite(include_scaling: bool = False) -> Dict[str, List[Benchmark]]:
    """The three evaluation suites (and optionally the scaling suite)."""
    return {
        suite: list(benchmarks)
        for suite, benchmarks in _index().suites.items()
        if include_scaling or suite != SCALING_SUITE
    }


def all_benchmarks(include_scaling: bool = False) -> List[Benchmark]:
    """All benchmarks, flattened (132 evaluation benchmarks by default)."""
    collected: List[Benchmark] = []
    for suite in benchmarks_by_suite(include_scaling).values():
        collected.extend(suite)
    return collected


def benchmark_examples(benchmark: Benchmark, fallback_count: int = 1):
    """The example set a deterministic sweep runs a benchmark on.

    The recorded witness examples when the benchmark has them (93 of the
    141 suite benchmarks do), otherwise a seeded deterministic set of
    ``fallback_count`` examples over the problem's variables — the shape
    the differential soundness tests and the capability matrix use, so
    "all 141 benchmarks" means the same thing everywhere.
    """
    from repro.semantics.examples import ExampleSet

    if benchmark.witness_examples is not None:
        return benchmark.witness_examples
    return ExampleSet().resized(
        benchmark.problem.variables, fallback_count, seed=0
    )


def get_benchmark(name: str, suite: Optional[str] = None) -> Benchmark:
    """Look a benchmark up by name (optionally disambiguated by suite).

    Without ``suite`` the first match in suite order wins.
    """
    index = _index()
    if suite is None:
        benchmark = index.by_name.get(name)
    else:
        benchmark = index.by_key.get((name, suite))
    if benchmark is None:
        where = "" if suite is None else f" in suite {suite!r}"
        raise ReproError(f"unknown benchmark {name!r}{where}")
    return benchmark


def is_registered(benchmark: Benchmark) -> bool:
    """Whether ``benchmark`` is the index's own object for its ``(name, suite)``."""
    # Every registered object comes out of the index, so before it exists
    # nothing is registered (and a hand-built benchmark need not build it).
    index = _INDEX
    return (
        index is not None
        and index.by_key.get((benchmark.name, benchmark.suite)) is benchmark
    )
