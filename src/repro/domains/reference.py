"""Frozen pre-columnar interval domain, kept as a differential/bench baseline.

The per-component :class:`ReferenceBox` and :class:`ReferenceIntervalDomain`
reproduce ``domains/interval.py`` exactly as it stood before the
struct-of-arrays restructuring: one Python-level loop per box operation,
one :class:`~repro.domains.numeric.Interval` object per example component,
one ``formula.evaluate`` call per threshold candidate.  Like
:mod:`repro.semantics.reference`, this twin exists to answer "did the fast
path change any answer?" and to anchor the ``reference`` leg of the domains
perf suite — it must not be "optimised".

The domain is deliberately **not** registered (the registry's doctest pins
the public domain names); pass an instance directly — ``resolve_domain``
and ``check_examples_abstract`` accept domain instances as well as names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from repro.domains.base import ExampleVectorDomain
from repro.domains.boolvectors import BoolVectorSet
from repro.domains.interval import _collect_thresholds
from repro.domains.numeric import Interval
from repro.logic.formulas import Formula
from repro.logic.terms import LinearExpression
from repro.semantics.examples import ExampleSet
from repro.sygus.spec import Specification
from repro.unreal.result import CheckResult, Verdict
from repro.utils.errors import SemanticsError
from repro.utils.vectors import BoolVector, IntVector


@dataclass(frozen=True)
class ReferenceBox:
    """A product of intervals, one per example component (pre-SoA layout)."""

    intervals: Tuple[Interval, ...]

    @staticmethod
    def bottom(dimension: int) -> "ReferenceBox":
        return ReferenceBox(tuple(Interval.empty() for _ in range(dimension)))

    @staticmethod
    def constant(vector: IntVector) -> "ReferenceBox":
        return ReferenceBox(tuple(Interval.constant(value) for value in vector))

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    def is_empty(self) -> bool:
        return any(interval.is_empty() for interval in self.intervals)

    def join(self, other: "ReferenceBox") -> "ReferenceBox":
        return ReferenceBox(
            tuple(a.join(b) for a, b in zip(self.intervals, other.intervals))
        )

    def widen(self, other: "ReferenceBox") -> "ReferenceBox":
        return ReferenceBox(
            tuple(a.widen(b) for a, b in zip(self.intervals, other.intervals))
        )

    def add(self, other: "ReferenceBox") -> "ReferenceBox":
        return ReferenceBox(
            tuple(a.add(b) for a, b in zip(self.intervals, other.intervals))
        )

    def leq(self, other: "ReferenceBox") -> bool:
        return all(a.leq(b) for a, b in zip(self.intervals, other.intervals))

    def select(self, mask: BoolVector, other: "ReferenceBox") -> "ReferenceBox":
        return ReferenceBox(
            tuple(
                a if keep else b
                for a, b, keep in zip(self.intervals, other.intervals, mask)
            )
        )

    def contains(self, vector: IntVector) -> bool:
        return all(
            interval.contains(value)
            for interval, value in zip(self.intervals, vector)
        )

    def __str__(self) -> str:
        return "<" + ", ".join(str(interval) for interval in self.intervals) + ">"


def _reference_truth_values(
    name: str, left: Interval, right: Interval
) -> List[bool]:
    """The pre-change per-pair truth-value analysis (non-empty intervals)."""

    def lower(interval: Interval) -> float:
        return float("-inf") if interval.low is None else interval.low

    def upper(interval: Interval) -> float:
        return float("inf") if interval.high is None else interval.high

    outcomes: Set[bool] = set()
    if name == "LessThan":
        if lower(left) < upper(right):
            outcomes.add(True)
        if upper(left) >= lower(right):
            outcomes.add(False)
    elif name == "LessEq":
        if lower(left) <= upper(right):
            outcomes.add(True)
        if upper(left) > lower(right):
            outcomes.add(False)
    elif name == "GreaterThan":
        if upper(left) > lower(right):
            outcomes.add(True)
        if lower(left) <= upper(right):
            outcomes.add(False)
    elif name == "GreaterEq":
        if upper(left) >= lower(right):
            outcomes.add(True)
        if lower(left) < upper(right):
            outcomes.add(False)
    else:  # Equal
        if lower(left) <= upper(right) and lower(right) <= upper(left):
            outcomes.add(True)
        if not (lower(left) == upper(left) == lower(right) == upper(right)):
            outcomes.add(False)
    return sorted(outcomes)


def reference_interval_comparison(
    name: str,
    left_intervals: Sequence[Interval],
    right_intervals: Sequence[Interval],
    dimension: int,
) -> BoolVectorSet:
    per_component = [
        _reference_truth_values(name, left_intervals[index], right_intervals[index])
        for index in range(dimension)
    ]
    results: List[List[bool]] = [[]]
    for component in per_component:
        results = [prefix + [value] for prefix in results for value in component]
    return BoolVectorSet([BoolVector(bits) for bits in results], dimension)


def reference_satisfiable_on_interval(
    formula: Formula, variable: str, interval: Interval
) -> bool:
    """The pre-change decision: one ``formula.evaluate`` per candidate."""
    if interval.is_empty():
        return False
    thresholds: Set[int] = set()
    if not _collect_thresholds(formula, variable, thresholds):
        return True
    candidates: Set[int] = set()

    def consider(value: int) -> None:
        if interval.contains(value):
            candidates.add(value)

    for threshold in thresholds:
        for delta in (-1, 0, 1):
            consider(threshold + delta)
    if interval.low is not None:
        consider(interval.low)
    if interval.high is not None:
        consider(interval.high)
    ordered = sorted(thresholds)
    if interval.low is None:
        consider((ordered[0] - 2) if ordered else (interval.high or 0))
    if interval.high is None:
        consider((ordered[-1] + 2) if ordered else (interval.low or 0))
    if not candidates:
        assert interval.low is not None
        candidates.add(interval.low)
    return any(formula.evaluate({variable: value}) for value in candidates)


class ReferenceIntervalDomain(ExampleVectorDomain):
    """The interval domain exactly as before the columnar restructuring."""

    name = "reference-interval"

    def int_bottom(self, dimension: int) -> ReferenceBox:
        return ReferenceBox.bottom(dimension)

    def int_join(self, left: ReferenceBox, right: ReferenceBox) -> ReferenceBox:
        return left.join(right)

    def int_widen(self, previous: ReferenceBox, current: ReferenceBox) -> ReferenceBox:
        return previous.widen(current)

    def int_equal(self, left: ReferenceBox, right: ReferenceBox) -> bool:
        return left.leq(right) and right.leq(left)

    def from_vector(self, vector: IntVector) -> ReferenceBox:
        return ReferenceBox.constant(vector)

    def int_add(self, left: ReferenceBox, right: ReferenceBox) -> ReferenceBox:
        return left.add(right)

    def ite(
        self,
        guards: BoolVectorSet,
        then_value: ReferenceBox,
        else_value: ReferenceBox,
        dimension: int,
    ) -> ReferenceBox:
        result = ReferenceBox.bottom(dimension)
        for guard in guards:
            result = result.join(then_value.select(guard, else_value))
        return result

    def compare(
        self, name: str, left: ReferenceBox, right: ReferenceBox, dimension: int
    ) -> BoolVectorSet:
        if left.is_empty() or right.is_empty():
            return BoolVectorSet.empty(dimension)
        return reference_interval_comparison(
            name, left.intervals, right.intervals, dimension
        )

    def check(
        self, start_value: ReferenceBox, spec: Specification, examples: ExampleSet
    ) -> CheckResult:
        if not isinstance(start_value, ReferenceBox):
            raise SemanticsError("the start nonterminal must be integer-sorted")
        if start_value.is_empty():
            return CheckResult(
                verdict=Verdict.UNREALIZABLE,
                examples=examples,
                details={"reason": "start symbol derives no terms on these examples"},
            )
        output = LinearExpression.variable("__interval_out")
        for index, example in enumerate(examples):
            instance = spec.instantiate(example, output)
            if not reference_satisfiable_on_interval(
                instance, "__interval_out", start_value.intervals[index]
            ):
                return CheckResult(
                    verdict=Verdict.UNREALIZABLE,
                    examples=examples,
                    details={
                        "reason": "interval refutation",
                        "example_index": index,
                        "interval": str(start_value.intervals[index]),
                    },
                )
        return CheckResult(
            verdict=Verdict.UNKNOWN,
            examples=examples,
            details={"box": str(start_value)},
        )
