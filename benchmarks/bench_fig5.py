"""Figure 5: nope running time vs |E| for |N| in {1, 2, 3}.

Same workload and sweep as Fig. 3, run through the NOPE baseline.  In the
paper the curves have the same shape as nayHorn's but sit about 19x higher
(§8.1), the cost of SeaHorn on the program-reachability encoding.  Without
SeaHorn, nope here decides each check as nayHorn does, so its curves match
Fig. 3's: the paper's gap is cited, not measured.
"""

from __future__ import annotations

import pytest

from repro.engine import create_engine
from repro.experiments import fig5, render_rows
from repro.suites.scaling import example_set, scaling_benchmark

POINTS = [(3, 1), (3, 2), (4, 1), (4, 2)]


@pytest.mark.parametrize("nonterminals,examples", POINTS)
def test_fig5_point(benchmark, nonterminals, examples):
    entry = scaling_benchmark(nonterminals)
    example_vector = example_set(examples)
    tool = create_engine("nope", seed=0)

    def run():
        return tool.check(entry.problem, example_vector)

    result = benchmark(run)
    assert result.verdict.value in ("unrealizable", "unknown")


def test_fig5_nope_matches_nayhorn():
    """The §8.1 claim that nope and nayHorn decide the same instances: same
    verdict and the same CHC-model certificate."""
    entry = scaling_benchmark(4)
    examples = example_set(2)
    horn_result = create_engine("nayHorn", seed=0).check(entry.problem, examples)
    nope_result = create_engine("nope", seed=0).check(entry.problem, examples)
    assert horn_result.verdict == nope_result.verdict
    assert horn_result.certificate["kind"] == "chc_model"
    assert nope_result.certificate == horn_result.certificate


def test_fig5_series(capsys):
    points = fig5(example_counts=(1, 2), sizes=(3, 4))
    with capsys.disabled():
        print("\n== Figure 5 (quick) ==")
        print(render_rows(points))
    assert len(points) == 4
