"""The experiment harness: regenerates every table and figure of §8.

Each public function builds a *declarative task list* and hands it to the
:class:`~repro.engine.runner.ExperimentRunner` — the same runner backs the
pytest benchmarks in ``benchmarks/`` and the command line (``python -m
repro.experiments <experiment> [--workers N] [--out results/]``).  Engines
are resolved exclusively through :mod:`repro.engine.registry`, so adding a
fourth tool to every table is a one-line change to :data:`ENGINE_ORDER`; the
actual solving of every cell flows through the api facade
(:meth:`repro.api.facade.Solver.solve_batch`), the one engine/timeout
execution path shared with the CLI and ``repro-nay serve``.

Experiments (see the per-experiment index,
``docs/architecture/engines-api.md#per-experiment-index``):

* :func:`table1` — LimitedPlus + LimitedIf: per-benchmark verdicts and times
  for naySL, nayHorn and nope;
* :func:`table2` — LimitedConst: the same, for the appendix table;
* :func:`fig2`   — naySL semi-linear-set solving time vs |N| for |E| = 1..4;
* :func:`fig3`   — nayHorn time vs |E| for |N| = 1..3;
* :func:`fig5`   — nope time vs |E| for |N| = 1..3;
* :func:`fig4`   — stratification on/off scatter for naySL.

Absolute times differ from the paper (different hardware, CVC4/Spacer
replaced by the in-repo solvers); the comparisons of interest are the shapes:
which tool solves which family, exponential growth in |N| and 2^|E|, and the
stratification speedup.  Without SeaHorn, nope decides every check as nayHorn
does, so its times track nayHorn's: the paper's ~19x nope/nayHorn gap (§8.1)
is cited, not measured.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.runner import ExperimentRunner, Task
from repro.suites import benchmarks_by_suite, get_benchmark
from repro.suites.base import Benchmark

#: The tools of the §8 comparison, in table column order.  Every experiment
#: resolves these through the engine registry; registering a new engine and
#: adding its name here is all it takes to grow the tables.
ENGINE_ORDER = ("naySL", "nayHorn", "nope")

#: ``(benchmark, suite)`` cells used when ``quick=True`` (the default for
#: pytest benchmarks): a representative subset that keeps the harness fast.
#: Names recur across suites, so each pick names its suite.
QUICK_TABLE1: List[Tuple[str, str]] = [
    ("plane1", "LimitedPlus"),
    ("plane2", "LimitedPlus"),
    ("guard1", "LimitedIf"),
    ("guard3", "LimitedIf"),
    ("search_2", "LimitedPlus"),
    ("max2", "LimitedIf"),
    ("guard2", "LimitedIf"),
    ("sum_2_5", "LimitedIf"),
]
QUICK_TABLE2: List[Tuple[str, str]] = [
    ("array_search_2", "LimitedConst"),
    ("array_search_4", "LimitedConst"),
    ("array_sum_2_5", "LimitedConst"),
    ("array_sum_3_15", "LimitedConst"),
    ("mpg_example1", "LimitedConst"),
    ("mpg_guard1", "LimitedConst"),
    ("mpg_ite1", "LimitedConst"),
    ("mpg_plane2", "LimitedConst"),
]


@dataclass
class ExperimentRow:
    """One row of a results table."""

    suite: str
    benchmark: str
    tool: str
    verdict: str
    seconds: float
    examples: int
    paper_seconds: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "benchmark": self.benchmark,
            "tool": self.tool,
            "verdict": self.verdict,
            "seconds": round(self.seconds, 4),
            "examples": self.examples,
            "paper_seconds": self.paper_seconds,
            **self.extra,
        }

    @staticmethod
    def from_dict(row: Dict[str, object]) -> "ExperimentRow":
        known = {"suite", "benchmark", "tool", "verdict", "seconds", "examples", "paper_seconds"}
        return ExperimentRow(
            suite=str(row.get("suite", "")),
            benchmark=str(row.get("benchmark", "")),
            tool=str(row.get("tool", "")),
            verdict=str(row.get("verdict", "")),
            seconds=float(row.get("seconds", 0.0)),
            examples=int(row.get("examples", 0)),
            paper_seconds=row.get("paper_seconds"),  # type: ignore[arg-type]
            extra={key: value for key, value in row.items() if key not in known},
        )


def _table_benchmarks(
    quick: bool, picks: Sequence[Tuple[str, str]], suites: Sequence[str]
) -> List[Benchmark]:
    """The quick picks or the whole suites, keeping those with a witness set."""
    if quick:
        chosen = [get_benchmark(name, suite) for name, suite in picks]
    else:
        by_suite = benchmarks_by_suite()
        chosen = [benchmark for suite in suites for benchmark in by_suite[suite]]
    return [benchmark for benchmark in chosen if benchmark.witness_examples is not None]


def _runner(workers: int, timeout: Optional[float], out: Optional[str]) -> ExperimentRunner:
    return ExperimentRunner(workers=workers, timeout=timeout, out=out)


# ---------------------------------------------------------------------------
# Tables 1 and 2
# ---------------------------------------------------------------------------


def _table_tasks(benchmarks: Sequence[Benchmark], timeout: float) -> List[Task]:
    """The (benchmark x engine) grid, benchmark-major like the paper's tables.

    Keeping the per-benchmark cells adjacent also keeps the grammar cache hot:
    all three engines normalize the same grammar back to back.
    """
    return [
        Task(
            kind="check",
            engine=engine,
            benchmark=benchmark.name,
            suite=benchmark.suite,
            timeout=timeout,
        )
        for benchmark in benchmarks
        for engine in ENGINE_ORDER
    ]


def table1(
    quick: bool = True,
    timeout: float = 60.0,
    workers: int = 1,
    out: Optional[str] = None,
) -> List[ExperimentRow]:
    """Table 1: LimitedPlus and LimitedIf, all three tools.

    Every cell checks the benchmark's recorded witness set; benchmarks
    without one are left out.  The nope column repeats nayHorn's verdicts
    at nayHorn's cost (see the module docstring).
    """
    benchmarks = _table_benchmarks(quick, QUICK_TABLE1, ("LimitedPlus", "LimitedIf"))
    rows = _runner(workers, timeout, out).run(_table_tasks(benchmarks, timeout), "table1")
    return [ExperimentRow.from_dict(row) for row in rows]


def table2(
    quick: bool = True,
    timeout: float = 60.0,
    workers: int = 1,
    out: Optional[str] = None,
) -> List[ExperimentRow]:
    """Table 2 (Appendix A): LimitedConst, all three tools."""
    benchmarks = _table_benchmarks(quick, QUICK_TABLE2, ("LimitedConst",))
    rows = _runner(workers, timeout, out).run(_table_tasks(benchmarks, timeout), "table2")
    return [ExperimentRow.from_dict(row) for row in rows]


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def fig2(
    sizes: Optional[Sequence[int]] = None,
    example_counts: Sequence[int] = (1, 2, 3, 4),
    workers: int = 1,
    out: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Fig. 2: time to compute the semi-linear set vs |N|, one series per |E|.

    The sweep revisits each grammar size once per example count; the grammar
    cache (:mod:`repro.engine.cache`) guarantees each scaling grammar is
    normalized exactly once per size, not once per (size, count) point.
    """
    if sizes is None:
        sizes = [3, 5, 8, 11, 14]
    tasks = [
        Task(kind="gfa", scaling_size=size, example_count=count)
        for count in example_counts
        for size in sizes
    ]
    rows = _runner(workers, None, out).run(tasks, "fig2")
    return [
        {
            "examples": row["examples"],
            "nonterminals": row["nonterminals"],
            "seconds": row["seconds"],
            "semilinear_size": row["semilinear_size"],
        }
        for row in rows
    ]


def _series_tasks(engine: str, example_counts, sizes) -> List[Task]:
    return [
        Task(
            kind="check",
            engine=engine,
            scaling_size=size,
            example_count=count,
        )
        for size in sizes
        for count in example_counts
    ]


def _series_points(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    return [
        {
            "nonterminals": row["nonterminals"],
            "examples": row["examples"],
            "seconds": row["seconds"],
            "verdict": row["verdict"],
        }
        for row in rows
    ]


def fig3(
    example_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    sizes: Sequence[int] = (3, 4, 5),
    workers: int = 1,
    out: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Fig. 3: nayHorn running time vs |E|, one series per |N|."""
    tasks = _series_tasks("nayHorn", example_counts, sizes)
    for task in tasks:
        task.tags["nonterminals"] = task.scaling_size
    rows = _runner(workers, None, out).run(tasks, "fig3")
    return _series_points(rows)


def fig5(
    example_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    sizes: Sequence[int] = (3, 4, 5),
    workers: int = 1,
    out: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Fig. 5: nope running time vs |E|, one series per |N|.

    nope checks as nayHorn does, so this series has Fig. 3's shape and
    scale; the paper's order-of-magnitude offset (§8.1) is not reproduced.
    """
    tasks = _series_tasks("nope", example_counts, sizes)
    for task in tasks:
        task.tags["nonterminals"] = task.scaling_size
    rows = _runner(workers, None, out).run(tasks, "fig5")
    return _series_points(rows)


def fig4(
    sizes: Optional[Sequence[int]] = None,
    example_count: int = 2,
    workers: int = 1,
    out: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Fig. 4: naySL solve time with vs without grammar stratification."""
    if sizes is None:
        sizes = [5, 8, 11, 14, 17]
    tasks = [
        Task(kind="gfa", scaling_size=size, example_count=example_count, stratify=stratify)
        for size in sizes
        for stratify in (True, False)
    ]
    rows = _runner(workers, None, out).run(tasks, "fig4")
    points: List[Dict[str, object]] = []
    for stratified, unstratified in zip(rows[0::2], rows[1::2]):
        with_stratification = float(stratified["seconds"])  # type: ignore[arg-type]
        without_stratification = float(unstratified["seconds"])  # type: ignore[arg-type]
        points.append(
            {
                "nonterminals": stratified["nonterminals"],
                "stratified_seconds": round(with_stratification, 4),
                "unstratified_seconds": round(without_stratification, 4),
                "speedup": round(
                    without_stratification / max(with_stratification, 1e-9), 2
                ),
            }
        )
    return points


# ---------------------------------------------------------------------------
# Rendering and CLI
# ---------------------------------------------------------------------------


def render_rows(rows: Sequence[Dict[str, object]] | Sequence[ExperimentRow]) -> str:
    """Render rows as an aligned text table."""
    dictionaries = [
        row.as_dict() if isinstance(row, ExperimentRow) else dict(row) for row in rows
    ]
    if not dictionaries:
        return "(no rows)"
    columns = list(dictionaries[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in dictionaries))
        for column in columns
    }
    lines = [
        "  ".join(str(column).ljust(widths[column]) for column in columns),
        "  ".join("-" * widths[column] for column in columns),
    ]
    for row in dictionaries:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


EXPERIMENTS = {
    "table1": lambda quick, **kw: table1(quick=quick, **kw),
    "table2": lambda quick, **kw: table2(quick=quick, **kw),
    "fig2": lambda quick, **kw: fig2(sizes=[3, 5, 8] if quick else None, **kw),
    "fig3": lambda quick, **kw: fig3(
        example_counts=(1, 2, 3) if quick else (1, 2, 3, 4, 5, 6), **kw
    ),
    "fig4": lambda quick, **kw: fig4(sizes=[5, 8, 11] if quick else None, **kw),
    "fig5": lambda quick, **kw: fig5(
        example_counts=(1, 2, 3) if quick else (1, 2, 3, 4, 5, 6), **kw
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the paper's experiments")
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--full", action="store_true", help="run the full (slow) configuration"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="solve-fabric workers for check cells (1 = in-process)",
    )
    parser.add_argument(
        "--out", default=None, help="directory to persist JSONL results under"
    )
    arguments = parser.parse_args(argv)
    names = sorted(EXPERIMENTS) if arguments.experiment == "all" else [arguments.experiment]
    for name in names:
        print(f"== {name} ==")
        rows = EXPERIMENTS[name](
            not arguments.full, workers=arguments.workers, out=arguments.out
        )
        print(render_rows(rows))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
