"""Tests for the CLI, the SyGuS printer on generated benchmarks, and timing utilities."""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.suites import all_benchmarks, get_benchmark
from repro.sygus import parse_sygus, print_sygus
from repro.utils.timing import Stopwatch

#: A slice of benchmarks whose problems are exported to SyGuS-IF and re-parsed.
ROUNDTRIP_BENCHMARKS = [
    ("plane1", "LimitedPlus"),
    ("guard1", "LimitedPlus"),
    ("search_2", "LimitedPlus"),
    ("max2", "LimitedIf"),
    ("sum_2_5", "LimitedIf"),
    ("array_search_2", "LimitedConst"),
    ("array_sum_3_5", "LimitedConst"),
    ("mpg_guard1", "LimitedConst"),
]


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("name,suite", ROUNDTRIP_BENCHMARKS)
    def test_benchmark_roundtrips_through_sygus_if(self, name, suite):
        benchmark = get_benchmark(name, suite)
        text = print_sygus(benchmark.problem)
        reparsed = parse_sygus(text, name=f"{name}-roundtrip")
        assert reparsed.variables == benchmark.problem.variables
        assert (
            reparsed.grammar.num_productions
            == benchmark.problem.grammar.num_productions
        )
        # The reparsed spec agrees with the original on the witness examples
        # for a handful of candidate outputs.
        examples = benchmark.witness_examples
        if examples is None or len(examples) == 0:
            return
        example = examples[0]
        for output in (-2, 0, 1, 3, 10):
            assert benchmark.problem.spec.holds_on_example(
                example, output
            ) == reparsed.spec.holds_on_example(example, output)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        captured = capsys.readouterr()
        assert "LimitedPlus" in captured.out
        assert "array_search_2" in captured.out

    def test_check_benchmark(self, capsys):
        assert cli_main(["check", "plane1", "--tool", "naySL"]) == 0
        captured = capsys.readouterr()
        assert "unrealizable" in captured.out

    def test_solve_sl_file(self, tmp_path, capsys):
        benchmark = get_benchmark("plane1", "LimitedPlus")
        path = tmp_path / "plane1.sl"
        path.write_text(print_sygus(benchmark.problem))
        assert cli_main(["solve", str(path), "--tool", "naySL", "--seed", "0"]) == 0
        captured = capsys.readouterr()
        assert "verdict:" in captured.out

    def test_experiments_subcommand(self, capsys):
        assert cli_main(["experiments", "fig4"]) == 0
        captured = capsys.readouterr()
        assert "stratified_seconds" in captured.out


class TestTiming:
    def test_stopwatch_deadline(self):
        stopwatch = Stopwatch(timeout_seconds=1000)
        assert not stopwatch.expired()
        assert stopwatch.remaining() > 0
        assert Stopwatch(timeout_seconds=0).expired()
        assert Stopwatch().remaining() is None
