"""SyGuS problems ``sy = (psi(f, x), G)`` (Def. 3.2) and their example-
restricted versions ``sy_E`` (Def. 3.4)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.grammar.rtg import RegularTreeGrammar
from repro.grammar.terms import Term
from repro.semantics.evaluator import evaluate_on_example
from repro.semantics.examples import ExampleSet
from repro.sygus.spec import Specification
from repro.utils.errors import SemanticsError


@dataclass
class SyGuSProblem:
    """A syntax-guided synthesis problem over LIA or CLIA.

    ``grammar`` is the search space ``G`` (a regular tree grammar whose terms
    are LIA/CLIA expressions over the declared ``variables``) and ``spec`` is
    the behavioural constraint ``psi``.
    """

    name: str
    grammar: RegularTreeGrammar
    spec: Specification
    logic: str = "LIA"
    metadata: dict = field(default_factory=dict)

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.spec.variables

    # -- the sy_E view -------------------------------------------------------

    def satisfies_examples(self, term: Term, examples: ExampleSet) -> bool:
        """Does the candidate term satisfy ``psi`` on every example in E?"""
        for example in examples:
            output = evaluate_on_example(term, example.as_dict())
            if not isinstance(output, (int, bool)) or isinstance(output, bool):
                raise SemanticsError("candidate terms must be integer-sorted")
            if not self.spec.holds_on_example(example, int(output)):
                return False
        return True

    def describe(self) -> str:
        """A short human-readable summary used by the CLI and the examples."""
        stats = (
            f"|N|={self.grammar.num_nonterminals}, "
            f"|delta|={self.grammar.num_productions}, "
            f"|V|={len(self.variables)}"
        )
        return f"SyGuS problem {self.name!r} ({self.logic}, {stats}): {self.spec}"
