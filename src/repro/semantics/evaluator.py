"""Evaluation of LIA/CLIA terms, both on single inputs and on example sets.

``evaluate(term, examples)`` implements the vectorised semantics ``[[e]]_E``
of Ex. 3.6 and §6.1: an integer-sorted term maps to an
:class:`~repro.utils.vectors.IntVector` of its outputs on every example, and a
Boolean-sorted term maps to a :class:`~repro.utils.vectors.BoolVector`.

The pass is a batched bottom-up sweep: an explicit post-order stack (no
recursion limit on deep chain terms) with a memo keyed on interned
:class:`~repro.grammar.terms.Term` identity, so shared subterms evaluate
once per call rather than once per occurrence.  Callers that evaluate many
terms over the *same* example set (the enumerator's observational-
equivalence signatures, the bench slates) pass a persistent ``memo`` dict to
share work across calls; a memo must never be reused across different
example sets.  All component-wise arithmetic runs through the active
:mod:`repro.utils.columns` backend via the vector classes.

``evaluate_on_example(term, assignment)`` is the scalar semantics ``[[e]](i)``
used by the verifier and the brute-force oracles in the tests.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

from repro.grammar.terms import Term
from repro.semantics.examples import ExampleSet
from repro.utils.errors import SemanticsError
from repro.utils.vectors import BoolVector, IntVector

Value = Union[int, bool]
VectorValue = Union[IntVector, BoolVector]

#: A per-example-set evaluation memo (interned term -> vector value).
EvalMemo = Dict[Term, VectorValue]


def evaluate_on_example(term: Term, assignment: Mapping[str, int]) -> Value:
    """Evaluate a CLIA term on a single input assignment."""
    name = term.symbol.name
    if name == "Num":
        return int(term.symbol.payload)  # type: ignore[arg-type]
    if name == "BoolConst":
        return bool(term.symbol.payload)
    if name == "Var":
        return _lookup(assignment, str(term.symbol.payload))
    if name == "NegVar":
        return -_lookup(assignment, str(term.symbol.payload))
    if name == "Pass":
        return evaluate_on_example(term.children[0], assignment)

    children = [evaluate_on_example(child, assignment) for child in term.children]
    if name == "Plus":
        return sum(int(child) for child in children)
    if name == "Minus":
        return int(children[0]) - int(children[1])
    if name == "IfThenElse":
        return children[1] if children[0] else children[2]
    if name == "And":
        return bool(children[0]) and bool(children[1])
    if name == "Or":
        return bool(children[0]) or bool(children[1])
    if name == "Not":
        return not bool(children[0])
    if name == "LessThan":
        return int(children[0]) < int(children[1])
    if name == "LessEq":
        return int(children[0]) <= int(children[1])
    if name == "GreaterThan":
        return int(children[0]) > int(children[1])
    if name == "GreaterEq":
        return int(children[0]) >= int(children[1])
    if name == "Equal":
        return int(children[0]) == int(children[1])
    raise SemanticsError(f"cannot evaluate symbol {name}")


def _lookup(assignment: Mapping[str, int], variable: str) -> int:
    if variable not in assignment:
        raise SemanticsError(f"input assignment is missing variable {variable!r}")
    return int(assignment[variable])


def evaluate(
    term: Term, examples: ExampleSet, memo: Optional[EvalMemo] = None
) -> VectorValue:
    """Evaluate a CLIA term on every example at once (``[[e]]_E``).

    ``memo`` maps interned terms to their vector values for *this* example
    set; pass the same dict across calls to share subterm results between
    terms (identity-keyed, so lookups are pointer-fast).
    """
    if memo is None:
        memo = {}
    cached = memo.get(term)
    if cached is not None:
        return cached
    stack = [term]
    while stack:
        current = stack[-1]
        if current in memo:
            stack.pop()
            continue
        pending = [child for child in current.children if child not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[current] = _combine(
            current, [memo[child] for child in current.children], examples
        )
    return memo[term]


def _combine(term: Term, children, examples: ExampleSet) -> VectorValue:
    """One operator applied to already-evaluated child vectors."""
    name = term.symbol.name
    if name == "Num":
        return IntVector.constant(int(term.symbol.payload), len(examples))  # type: ignore[arg-type]
    if name == "BoolConst":
        return BoolVector.constant(bool(term.symbol.payload), len(examples))
    if name == "Var":
        return examples.projection(str(term.symbol.payload))
    if name == "NegVar":
        return -examples.projection(str(term.symbol.payload))
    if name == "Pass":
        return children[0]
    if name == "Plus":
        result = children[0]
        for child in children[1:]:
            result = result + child
        return result
    if name == "Minus":
        return children[0] - children[1]
    if name == "IfThenElse":
        guard, then_value, else_value = children
        assert isinstance(guard, BoolVector)
        assert isinstance(then_value, IntVector) and isinstance(else_value, IntVector)
        return then_value.mask(guard) + else_value.mask(~guard)
    if name == "And":
        return children[0] & children[1]
    if name == "Or":
        return children[0] | children[1]
    if name == "Not":
        return ~children[0]
    if name in ("LessThan", "LessEq", "GreaterThan", "GreaterEq", "Equal"):
        left, right = children
        assert isinstance(left, IntVector) and isinstance(right, IntVector)
        if name == "LessThan":
            return left.less_than(right)
        if name == "LessEq":
            return ~right.less_than(left)
        if name == "GreaterThan":
            return right.less_than(left)
        if name == "GreaterEq":
            return ~left.less_than(right)
        return left.equal_to(right)
    raise SemanticsError(f"cannot evaluate symbol {name}")
