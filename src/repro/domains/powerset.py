"""The example-powerset domain: finite sets of concrete output vectors.

For small example sets the concrete vector semantics of §6.1 is almost
tractable by brute force: an integer-sorted nonterminal's abstraction is the
*set of output vectors* its derivable terms produce on the examples, a
Boolean-sorted nonterminal's is the usual Boolean-vector set.  Because
grammar productions combine independently-derived subterms, applying an
operator to every combination of argument vectors is an **exact** transfer —
so as long as every set stays below the size cap, the domain computes the
precise reachable set and the concretization check is two-sided: no vector
satisfies the spec on all examples ⇒ ``UNREALIZABLE``; some vector does ⇒
``REALIZABLE`` (on these examples, the same one-sided-to-two-sided contract
as the exact engines).

Grammars with unbounded arithmetic (``Plus(Start, Start)``) produce
infinitely many vectors; the cap is the widening: a set that outgrows it
jumps to ``TOP``, the domain records that it lost exactness, and the check
degrades to sound-``UNREALIZABLE``-only (and ``UNKNOWN`` when ``TOP``
reaches the start symbol).  LimitedConst/LimitedIf instances whose witness
behavior fits under the cap are decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.domains.base import ExampleVectorDomain
from repro.domains.boolvectors import BoolVectorSet
from repro.domains.registry import register_domain
from repro.semantics.examples import ExampleSet
from repro.sygus.spec import Specification
from repro.unreal.result import CheckResult, Verdict
from repro.utils.columns import PYTHON_OPS, ColumnOverflowError, active_ops
from repro.utils.errors import SemanticsError
from repro.utils.stats import note
from repro.utils.vectors import BoolVector, IntVector

#: Default cap on the vectors a single nonterminal's set may hold before the
#: value widens to TOP.  64 keeps the quadratic ``Plus#`` transfer (at most
#: cap^2 sums per evaluation) comfortably cheap.
DEFAULT_CAP = 64

#: Default bound on the example count the domain attempts: the Boolean side
#: enumerates up to ``2^|E|`` guard vectors, so larger sets answer UNKNOWN
#: up front (see :meth:`ExamplePowersetDomain.pre_check`).
DEFAULT_MAX_EXAMPLES = 6


@dataclass(frozen=True)
class VectorSet:
    """An exact finite set of output vectors, or ``TOP`` (cap exceeded)."""

    vectors: FrozenSet[IntVector]
    dimension: int
    is_top: bool = False

    @staticmethod
    def bottom(dimension: int) -> "VectorSet":
        return VectorSet(frozenset(), dimension)

    @staticmethod
    def top(dimension: int) -> "VectorSet":
        return VectorSet(frozenset(), dimension, is_top=True)

    @staticmethod
    def of(vectors, dimension: int) -> "VectorSet":
        return VectorSet(frozenset(vectors), dimension)

    def is_empty(self) -> bool:
        return not self.is_top and not self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(sorted(self.vectors, key=lambda vector: vector.values))

    def __str__(self) -> str:
        if self.is_top:
            return "TOP"
        return "{" + ", ".join(str(tuple(v)) for v in self) + "}"


@register_domain("powerset")
class ExamplePowersetDomain(ExampleVectorDomain):
    """Finite input-output behavior sets, exact below the size cap.

    Per-check state: :attr:`lost_exactness` records whether any value hit
    the cap (or a comparison had to over-approximate), which is what allows
    :meth:`check` to claim ``REALIZABLE`` only when the whole solve stayed
    exact.  Create a fresh instance per check (the registry does).
    """

    def __init__(
        self, cap: int = DEFAULT_CAP, max_examples: int = DEFAULT_MAX_EXAMPLES
    ):
        self.cap = int(cap)
        self.max_examples = int(max_examples)
        self.lost_exactness = False

    # -- capping ---------------------------------------------------------------

    def _capped(self, vectors: FrozenSet[IntVector], dimension: int) -> VectorSet:
        if len(vectors) > self.cap:
            self.lost_exactness = True
            return VectorSet.top(dimension)
        return VectorSet(vectors, dimension)

    def _top(self, dimension: int) -> VectorSet:
        self.lost_exactness = True
        return VectorSet.top(dimension)

    # -- integer-sort hooks ----------------------------------------------------

    def int_bottom(self, dimension: int) -> VectorSet:
        return VectorSet.bottom(dimension)

    def int_join(self, left: VectorSet, right: VectorSet) -> VectorSet:
        if left.is_top or right.is_top:
            return self._top(left.dimension or right.dimension)
        return self._capped(left.vectors | right.vectors, left.dimension)

    def int_equal(self, left: VectorSet, right: VectorSet) -> bool:
        return left.is_top == right.is_top and left.vectors == right.vectors

    def from_vector(self, vector: IntVector) -> VectorSet:
        return VectorSet.of([vector], vector.dimension)

    def int_add(self, left: VectorSet, right: VectorSet) -> VectorSet:
        if left.is_empty() or right.is_empty():
            return VectorSet.bottom(left.dimension or right.dimension)
        if left.is_top or right.is_top:
            return self._top(left.dimension or right.dimension)
        left_rows = [vector.values for vector in left.vectors]
        right_rows = [vector.values for vector in right.vectors]
        ops = active_ops()
        try:
            sums = ops.pairwise_sums(left_rows, right_rows)
        except ColumnOverflowError:
            sums = PYTHON_OPS.pairwise_sums(left_rows, right_rows)
        # Deduplicated as canonical tuples above; intern once per distinct row.
        return self._capped(
            frozenset(IntVector._wrap(row) for row in sums), left.dimension
        )

    def ite(
        self,
        guards: BoolVectorSet,
        then_value: VectorSet,
        else_value: VectorSet,
        dimension: int,
    ) -> VectorSet:
        if guards.is_empty() or then_value.is_empty() or else_value.is_empty():
            return VectorSet.bottom(dimension)
        if then_value.is_top or else_value.is_top:
            return self._top(dimension)
        then_rows = [vector.values for vector in then_value.vectors]
        else_rows = [vector.values for vector in else_value.vectors]
        combined = set()
        ops = active_ops()
        for guard in guards:
            try:
                spliced = ops.pairwise_select(guard.values, then_rows, else_rows)
            except ColumnOverflowError:
                spliced = PYTHON_OPS.pairwise_select(
                    guard.values, then_rows, else_rows
                )
            combined.update(spliced)
        return self._capped(
            frozenset(IntVector._wrap(row) for row in combined), dimension
        )

    def compare(
        self, name: str, left: VectorSet, right: VectorSet, dimension: int
    ) -> BoolVectorSet:
        if left.is_empty() or right.is_empty():
            return BoolVectorSet.empty(dimension)
        if left.is_top or right.is_top:
            self.lost_exactness = True
            return BoolVectorSet.top(dimension)
        left_rows = [vector.values for vector in left.vectors]
        right_rows = [vector.values for vector in right.vectors]
        ops = active_ops()
        try:
            outcomes = ops.pairwise_compare(name, left_rows, right_rows)
        except ColumnOverflowError:
            outcomes = PYTHON_OPS.pairwise_compare(name, left_rows, right_rows)
        return BoolVectorSet(
            {BoolVector._wrap(row) for row in outcomes}, dimension
        )

    # -- the check -------------------------------------------------------------

    def _note_knobs(self) -> None:
        """Report the effective knobs in the request's ``solver_stats``."""
        note({"powerset_max_examples": self.max_examples, "powerset_cap": self.cap})

    def pre_check(self, examples: ExampleSet) -> Optional[CheckResult]:
        if len(examples) > self.max_examples:
            self._note_knobs()
            return CheckResult(
                verdict=Verdict.UNKNOWN,
                examples=examples,
                details={
                    "reason": "example set exceeds the powerset budget",
                    "max_examples": self.max_examples,
                },
            )
        return None

    def check(
        self, start_value: VectorSet, spec: Specification, examples: ExampleSet
    ) -> CheckResult:
        if not isinstance(start_value, VectorSet):
            raise SemanticsError("the start nonterminal must be integer-sorted")
        self._note_knobs()
        details = {
            "behaviors": "TOP" if start_value.is_top else len(start_value),
            "exact": not self.lost_exactness,
        }
        if start_value.is_top:
            return CheckResult(
                verdict=Verdict.UNKNOWN, examples=examples, details=details
            )
        if start_value.is_empty():
            return CheckResult(
                verdict=Verdict.UNREALIZABLE, examples=examples, details=details
            )
        for vector in start_value:
            if all(
                spec.holds_on_example(example, vector[index])
                for index, example in enumerate(examples)
            ):
                if self.lost_exactness:
                    # The set is an over-approximation: the witness vector
                    # may be spurious, so the positive direction is lost.
                    return CheckResult(
                        verdict=Verdict.UNKNOWN, examples=examples, details=details
                    )
                details["witness_vector"] = tuple(vector)
                return CheckResult(
                    verdict=Verdict.REALIZABLE, examples=examples, details=details
                )
        # No vector of an over-approximating set satisfies the spec: sound
        # regardless of exactness (the exact set is a subset).
        return CheckResult(
            verdict=Verdict.UNREALIZABLE, examples=examples, details=details
        )


