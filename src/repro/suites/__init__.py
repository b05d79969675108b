"""Benchmark suites used in the evaluation (§8).

The paper evaluates on 132 variants of the 60 CLIA SyGuS-competition
benchmarks, grouped into three families created by the quantitative-syntax
tool of Hu & D'Antoni (CAV 2018):

* **LimitedPlus** (30) — the grammar allows one fewer ``Plus`` than the
  known optimal solution needs;
* **LimitedIf** (57) — one fewer ``IfThenElse`` than needed;
* **LimitedConst** (45) — the constants available in the grammar are
  restricted below what the optimal solution uses.

The original ``.sl`` files are not redistributable here, so
:mod:`repro.suites` regenerates structurally equivalent families: the same
specification functions (max_k, array_search_k, array_sum_k_t, mpg_*, guards,
planes, ...), the same bounding construction for grammars, and the same
realizability status.  Each benchmark also records the statistics the paper
reports for its namesake (grammar sizes, |E|, per-tool solved/timeout and
times) so the experiment harness can print paper-vs-measured tables.

:mod:`repro.suites.scaling` additionally provides the synthetic grammars used
for the scaling studies of Figs. 2, 3 and 5.
"""

from repro.suites.base import Benchmark
from repro.suites.limited_plus import limited_plus_suite
from repro.suites.limited_if import limited_if_suite
from repro.suites.limited_const import limited_const_suite
from repro.suites.scaling import scaling_suite
from repro.suites.registry import (
    all_benchmarks,
    benchmark_examples,
    benchmarks_by_suite,
    get_benchmark,
    is_registered,
)

__all__ = [
    "Benchmark",
    "limited_plus_suite",
    "limited_if_suite",
    "limited_const_suite",
    "scaling_suite",
    "all_benchmarks",
    "benchmark_examples",
    "benchmarks_by_suite",
    "get_benchmark",
    "is_registered",
]
