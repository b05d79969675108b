"""Application: synthesizing terms with a minimal number of operators.

§1 motivates unrealizability checking with the problem of computing
*syntactically optimal* solutions (Hu & D'Antoni, CAV 2018): to show that a
solution using k occurrences of an operator is optimal, one proves that the
same problem restricted to k-1 occurrences is unrealizable.  This example
plays that loop end to end for the ``max2`` specification and the
``IfThenElse`` operator:

* with 0 conditionals the problem is unrealizable (proved by NaySL);
* with 1 conditional it is realizable and the enumerative synthesizer finds
  the familiar ``ite(x < y, y, x)`` term;
* therefore 1 is the minimal number of conditionals for max2 — exactly the
  reasoning behind the LimitedIf benchmark family.

Run with:  python examples/minimal_syntax_synthesis.py
"""

from __future__ import annotations

from repro import ExampleSet, NayConfig, NaySolver, SyGuSProblem
from repro.suites.base import bounded_ite_grammar, max_spec

#: Seed examples for the CEGIS loop.  Alg. 2 would discover an equivalent set
#: with random examples; seeding keeps the demo fast and deterministic (the
#: 2^|E| cost of the exact check rewards small, well-chosen examples).
SEED_EXAMPLES = ExampleSet.of(
    {"x": 0, "y": 1}, {"x": 1, "y": 0}, {"x": 1, "y": 1}, {"x": 2, "y": 0}
)


def minimal_ite_count(spec_variables, max_budget: int = 3) -> int:
    """The smallest IfThenElse budget for which max(spec_variables) is realizable."""
    spec = max_spec(spec_variables)
    for budget in range(max_budget + 1):
        grammar = bounded_ite_grammar(
            spec_variables, [0, 1], ite_budget=budget, name=f"max_ite{budget}"
        )
        problem = SyGuSProblem(
            f"max{len(spec_variables)}_ite{budget}", grammar, spec, logic="CLIA"
        )
        # The helper nonterminals of the bounded grammar make the optimal max
        # term a little larger than the default enumeration budget, so the
        # synthesizer's term-size budget is raised explicitly.
        solver = NaySolver(
            NayConfig(seed=0, timeout_seconds=120, synthesizer_max_size=14)
        )
        outcome = solver.solve(problem, initial_examples=SEED_EXAMPLES)
        print(
            f"budget {budget}: {outcome.verdict.value} "
            f"({outcome.num_examples} examples, {outcome.elapsed_seconds:.2f}s)"
        )
        if outcome.verdict.value == "realizable":
            print(f"  optimal solution: {outcome.solution.to_sexpr()}")
            return budget
    raise RuntimeError("no realizable budget found within the search range")


def main() -> None:
    print("Searching for the minimal number of conditionals for max(x, y):")
    optimal = minimal_ite_count(["x", "y"])
    print(f"max(x, y) needs exactly {optimal} IfThenElse operator(s)")


if __name__ == "__main__":
    main()
