"""SyGuS-IF round-trip tests over every suite benchmark.

Exercises :mod:`repro.sygus.printer` against the whole benchmark corpus:

* ``print -> parse -> print`` is a *fixed point* for every benchmark (the
  second print reproduces the first byte for byte);
* the reparsed problem means the same thing: its grammar keeps the start
  symbol and the number of terms of each size, and its specification agrees
  with the original on the witness examples for a spread of candidate outputs;
* for a representative subset, the reparsed problem produces the same
  engine verdict on the witness examples (the full corpus would multiply
  suite runtime; spec-level agreement already covers every benchmark).
"""

from __future__ import annotations

import pytest

from repro.api import Solver
from repro.grammar.automaton import TreeAutomaton
from repro.suites import all_benchmarks
from repro.sygus import parse_sygus, print_sygus

#: The whole corpus, including the scaling suite.
ALL_BENCHMARKS = all_benchmarks(include_scaling=True)
BENCHMARK_IDS = [f"{b.suite}/{b.name}" for b in ALL_BENCHMARKS]

#: Benchmarks whose reparsed form is re-run through the exact engine.
VERDICT_SUBSET = [
    ("plane1", "LimitedPlus"),
    ("guard1", "LimitedPlus"),
    ("search_2", "LimitedPlus"),
    ("max2", "LimitedIf"),
    ("sum_2_5", "LimitedIf"),
    ("guard2", "LimitedIf"),
    ("array_search_2", "LimitedConst"),
    ("array_sum_2_5", "LimitedConst"),
    ("mpg_guard1", "LimitedConst"),
    ("mpg_plane2", "LimitedConst"),
]

#: Candidate outputs used to compare specification semantics.
PROBE_OUTPUTS = (-7, -2, -1, 0, 1, 2, 3, 10)


@pytest.mark.parametrize("entry", ALL_BENCHMARKS, ids=BENCHMARK_IDS)
def test_print_parse_print_is_fixed_point(entry):
    text = print_sygus(entry.problem)
    reparsed = parse_sygus(text, name=f"{entry.name}-roundtrip")
    assert print_sygus(reparsed) == text
    assert reparsed.variables == entry.problem.variables
    assert (
        reparsed.grammar.num_productions == entry.problem.grammar.num_productions
    )


@pytest.mark.parametrize("entry", ALL_BENCHMARKS, ids=BENCHMARK_IDS)
def test_reparsed_grammar_keeps_start_and_term_counts(entry):
    # SyGuS takes the first listed nonterminal as the start symbol.
    reparsed = parse_sygus(print_sygus(entry.problem), name=f"{entry.name}-roundtrip")
    assert reparsed.grammar.start.name == entry.problem.grammar.start.name
    assert TreeAutomaton.from_grammar(reparsed.grammar).count_terms(
        max_size=6
    ) == TreeAutomaton.from_grammar(entry.problem.grammar).count_terms(max_size=6)


@pytest.mark.parametrize("entry", ALL_BENCHMARKS, ids=BENCHMARK_IDS)
def test_reparsed_spec_agrees_on_witness_examples(entry):
    if entry.witness_examples is None or len(entry.witness_examples) == 0:
        pytest.skip("benchmark has no recorded witness examples")
    reparsed = parse_sygus(print_sygus(entry.problem), name=f"{entry.name}-roundtrip")
    for example in entry.witness_examples:
        for output in PROBE_OUTPUTS:
            assert entry.problem.spec.holds_on_example(
                example, output
            ) == reparsed.spec.holds_on_example(example, output), (
                f"spec disagreement on {example} with output {output}"
            )


@pytest.mark.parametrize("name,suite", VERDICT_SUBSET)
def test_reparsed_problem_produces_same_verdict(name, suite):
    solver = Solver(engine="naySL", timeout_seconds=120.0)
    entry = next(
        b for b in ALL_BENCHMARKS if b.name == name and b.suite == suite
    )
    witness = entry.witness_examples
    assert witness is not None and len(witness) > 0
    original = solver.check(entry, examples=witness)
    reparsed_problem = parse_sygus(
        print_sygus(entry.problem), name=f"{name}-roundtrip"
    )
    reparsed = solver.check(reparsed_problem, examples=witness)
    assert original.verdict == reparsed.verdict == "unrealizable"
