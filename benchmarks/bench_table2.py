"""Table 2 (Appendix A): naySL / nayHorn / nope on LimitedConst benchmarks.

The paper's headline for this table is that *every* tool solves *every*
LimitedConst benchmark quickly, with naySL's time growing with the number of
array variables.  The benchmark entries measure representative cells; the
row test regenerates the quick table.
"""

from __future__ import annotations

import pytest

from repro.api import Solver
from repro.experiments import ENGINE_ORDER, QUICK_TABLE2, render_rows, table2
from repro.suites import get_benchmark

CELLS = [
    "array_search_2",
    "array_search_6",
    "array_sum_2_5",
    "array_sum_6_15",
    "mpg_example1",
    "mpg_guard1",
    "mpg_plane2",
]


@pytest.mark.parametrize("benchmark_name", CELLS)
@pytest.mark.parametrize("tool_name", list(ENGINE_ORDER))
def test_table2_cell(benchmark, benchmark_name, tool_name):
    entry = get_benchmark(benchmark_name, "LimitedConst")
    solver = Solver(engine=tool_name)

    def run():
        return solver.check(entry)

    result = benchmark(run)
    if tool_name == "naySL":
        assert result.verdict == "unrealizable"
    else:
        assert result.verdict in ("unrealizable", "unknown")


def test_table2_rows(capsys):
    rows = table2(quick=True, timeout=60.0)
    assert rows, "table 2 produced no rows"
    nay_sl_rows = [row for row in rows if row.tool == "naySL"]
    assert all(row.verdict == "unrealizable" for row in nay_sl_rows)
    with capsys.disabled():
        picks = ", ".join(name for name, _suite in QUICK_TABLE2)
        print("\n== Table 2 (quick subset: " + picks + ") ==")
        print(render_rows(rows))


def test_table2_scaling_with_array_size(capsys):
    """naySL's LimitedConst time grows with the array size (Table 2 shape)."""
    solver = Solver(engine="naySL")
    small = solver.check(get_benchmark("array_search_2", "LimitedConst"))
    large = solver.check(get_benchmark("array_search_10", "LimitedConst"))
    assert small.verdict == "unrealizable"
    assert large.verdict == "unrealizable"
    with capsys.disabled():
        print(
            f"\narray_search_2: {small.elapsed_seconds:.3f}s, "
            f"array_search_10: {large.elapsed_seconds:.3f}s"
        )
    assert large.elapsed_seconds > small.elapsed_seconds
