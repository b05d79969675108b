"""Algorithm 2: NAY's CEGIS loop with random examples.

The paper runs two threads: ESolver searching for a solution over the
example set ``E``, and the GFA-based unrealizability check over ``E`` plus a
growing set of random temporary examples ``Er``.  This reproduction runs the
same two activities round-robin in a single thread (the environment is
single-process), preserving the algorithm's logic:

* the unrealizability check uses ``E ∪ Er`` (sound by Lem. 3.5: if the
  problem restricted to any finite example set is unrealizable, so is the
  original problem);
* the synthesizer only ever uses ``E``;
* a verified candidate ends the loop with ``REALIZABLE``; a counterexample
  from the verifier is added to ``E``;
* when the check says "realizable on the current examples" but the
  synthesizer has not produced a candidate, a fresh random example is added
  to ``Er`` (Alg. 2 lines 17-18).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.semantics.examples import Example, ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.synth.enumerator import EnumerativeSynthesizer
from repro.synth.verifier import Verifier
from repro.unreal.approximate import check_examples_abstract
from repro.unreal.clia import check_clia_examples
from repro.unreal.lia import check_lia_examples
from repro.unreal.result import CegisResult, CheckResult, Verdict
from repro.utils.errors import SolverLimitError
from repro.utils.stats import count
from repro.utils.timing import Stopwatch


#: Signature of an injected unrealizability checker (Alg. 2's "thread 2").
Checker = Callable[[SyGuSProblem, ExampleSet], CheckResult]

#: Range random examples are drawn from (the seed set and Alg. 2's ``Er``).
EXAMPLE_LOW = -50
EXAMPLE_HIGH = 50

#: How many random temporary examples ``Er`` may grow to before giving up.
MAX_RANDOM_EXAMPLES = 6

#: Term budget of one enumerative synthesis round.
SYNTHESIZER_MAX_TERMS = 50_000


@dataclass
class NayConfig:
    """Tuning knobs of the CEGIS loop (defaults follow §7/§8)."""

    mode: str = "sl"  # "sl" = exact semi-linear sets, "horn" = approximate
    seed: Optional[int] = None
    max_iterations: int = 40
    timeout_seconds: Optional[float] = None
    synthesizer_max_size: int = 10
    stratify: bool = True
    #: Grammar reduction applied before equation building: ``"off"``,
    #: ``"reduce"`` (language-preserving merge of equal nonterminals) or
    #: ``"oe"`` (observational-equivalence merge on the current example set).
    prune: str = "off"
    #: When set, replaces the mode-based checker dispatch entirely.  This is
    #: how NOPE runs the CEGIS loop with its own check (which ships CHC-model
    #: certificates): the engine passes ``checker=self.check`` instead of
    #: assigning over the solver's ``check_examples`` method.
    checker: Optional[Checker] = None


class NaySolver:
    """The top-level NAY tool: returns two-sided answers or times out (§7)."""

    def __init__(self, config: Optional[NayConfig] = None):
        self.config = config or NayConfig()
        self.synthesizer = EnumerativeSynthesizer(
            max_size=self.config.synthesizer_max_size,
            max_terms=SYNTHESIZER_MAX_TERMS,
        )
        self.verifier = Verifier()

    # -- example-level check (Alg. 1 dispatch) --------------------------------

    def check_examples(
        self, problem: SyGuSProblem, examples: ExampleSet
    ) -> CheckResult:
        """Dispatch to the injected, LIA, CLIA or approximate checker."""
        if self.config.checker is not None:
            return self.config.checker(problem, examples)
        if self.config.mode in ("horn", "abstract"):
            return check_examples_abstract(problem, examples, prune=self.config.prune)
        if problem.grammar.is_lia() or problem.grammar.is_lia_plus():
            return check_lia_examples(
                problem,
                examples,
                stratify=self.config.stratify,
                prune=self.config.prune,
            )
        return check_clia_examples(
            problem, examples, stratify=self.config.stratify, prune=self.config.prune
        )

    # -- the CEGIS loop (Alg. 2) ----------------------------------------------

    def solve(
        self,
        problem: SyGuSProblem,
        initial_examples: Optional[ExampleSet] = None,
    ) -> CegisResult:
        config = self.config
        rng = random.Random(config.seed)
        stopwatch = Stopwatch(config.timeout_seconds)

        if initial_examples is not None and len(initial_examples) > 0:
            examples = initial_examples
        else:
            examples = ExampleSet.random(
                problem.variables, 1, rng, EXAMPLE_LOW, EXAMPLE_HIGH
            )
        random_examples = ExampleSet()

        # The enumerator's OE-dedup count, summed over the rounds; every
        # solve reports it, zero or not.
        count({"enumerator_candidates_deduped": 0})
        iterations = 0
        for iterations in range(1, config.max_iterations + 1):
            if stopwatch.expired():
                return self._timeout(examples, iterations, stopwatch)

            # Thread 2 of Alg. 2: the unrealizability check on E ∪ Er.
            check_set = examples.union(random_examples)
            try:
                check = self.check_examples(problem, check_set)
            except SolverLimitError:
                return self._timeout(examples, iterations, stopwatch)
            if check.verdict == Verdict.UNREALIZABLE:
                return CegisResult(
                    verdict=Verdict.UNREALIZABLE,
                    examples=check_set,
                    iterations=iterations,
                    elapsed_seconds=stopwatch.elapsed(),
                    num_examples=len(check_set),
                    details={"check": check.details},
                    certificate=check.certificate,
                )

            # Thread 1 of Alg. 2: enumerative synthesis on E only.
            outcome = self.synthesizer.synthesize(problem, examples)
            if isinstance(outcome.details, dict):
                # "deduped" is the per-call delta (cached rounds report 0).
                deduped = int(outcome.details.get("deduped", 0) or 0)
                count({"enumerator_candidates_deduped": deduped})
            if outcome.found:
                verification = self.verifier.verify(problem, outcome.solution)
                if verification.is_valid:
                    return CegisResult(
                        verdict=Verdict.REALIZABLE,
                        examples=examples,
                        solution=outcome.solution,
                        iterations=iterations,
                        elapsed_seconds=stopwatch.elapsed(),
                        num_examples=len(examples),
                    )
                examples = examples.extended(verification.counterexample)
                continue

            # The check says realizable/unknown on the current examples and the
            # synthesizer ran out of budget: add a random temporary example.
            if len(random_examples) >= MAX_RANDOM_EXAMPLES:
                return self._timeout(examples, iterations, stopwatch)
            random_examples = random_examples.union(
                ExampleSet.random(
                    problem.variables, 1, rng, EXAMPLE_LOW, EXAMPLE_HIGH
                )
            )

        return self._timeout(examples, iterations, stopwatch)

    def _timeout(
        self, examples: ExampleSet, iterations: int, stopwatch: Stopwatch
    ) -> CegisResult:
        return CegisResult(
            verdict=Verdict.TIMEOUT,
            examples=examples,
            iterations=iterations,
            elapsed_seconds=stopwatch.elapsed(),
            num_examples=len(examples),
        )
