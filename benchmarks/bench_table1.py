"""Table 1: naySL / nayHorn / nope on LimitedPlus and LimitedIf benchmarks.

Each pytest-benchmark entry measures one (tool, benchmark) cell of Table 1 on
the benchmark's recorded witness example set — the final, dominating CEGIS
iteration.  The module-level ``test_table1_rows`` run prints the full quick
table (verdicts, measured time, paper time).  Without SeaHorn, nope decides
each cell as nayHorn does, so its times are nayHorn's; the paper's ~19x
nope/nayHorn gap (§8.1) is cited, not measured.
"""

from __future__ import annotations

import pytest

from repro.api import Solver
from repro.experiments import ENGINE_ORDER, QUICK_TABLE1, render_rows, table1
from repro.suites import get_benchmark

#: (benchmark, suite) cells measured individually; a representative subset of
#: the rows of Table 1 that every tool handles quickly.
CELLS = [
    ("plane1", "LimitedPlus"),
    ("plane2", "LimitedPlus"),
    ("guard1", "LimitedPlus"),
    ("search_2", "LimitedPlus"),
    ("max2", "LimitedIf"),
    ("guard2", "LimitedIf"),
]


@pytest.mark.parametrize("benchmark_name,suite", CELLS)
@pytest.mark.parametrize("tool_name", list(ENGINE_ORDER))
def test_table1_cell(benchmark, benchmark_name, suite, tool_name):
    entry = get_benchmark(benchmark_name, suite)
    solver = Solver(engine=tool_name)

    def run():
        return solver.check(entry)

    result = benchmark(run)
    # Soundness: no tool may claim a realizable/unknown verdict is
    # "unrealizable" wrongly; the named benchmarks are all unrealizable, so an
    # exact tool must prove it, and approximate tools may only say unknown.
    if tool_name == "naySL":
        assert result.verdict == "unrealizable"
    else:
        assert result.verdict in ("unrealizable", "unknown")


def test_table1_rows(capsys):
    rows = table1(quick=True, timeout=60.0)
    assert rows, "table 1 produced no rows"
    nay_sl_rows = [row for row in rows if row.tool == "naySL"]
    assert all(row.verdict == "unrealizable" for row in nay_sl_rows)
    with capsys.disabled():
        picks = ", ".join(f"{suite}/{name}" for name, suite in QUICK_TABLE1)
        print("\n== Table 1 (quick subset: " + picks + ") ==")
        print(render_rows(rows))
