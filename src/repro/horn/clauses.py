"""Encoding GFA equations as constrained Horn clauses (§4.3, Ex. 4.7).

Each nonterminal ``X`` becomes an uninterpreted predicate ``X(o_1, ..., o_n)``
over the output vector on the example set; each production becomes a Horn
clause whose body relates the argument nonterminals' output vectors to the
head's through the operator's concrete semantics, e.g. for
``Start -> Plus(S1, Start)``::

    forall v, v1, v2.  Start(v)  <=  S1(v1) AND Start(v2) AND v = v1 + v2

The query clause asserts the specification on the start predicate's outputs.
The paper hands such systems to Spacer; this reproduction's
:meth:`~repro.baselines.engines.NayHorn.check` solves the same GFA problem
with abstract interpretation instead and ships the fixpoint as a model of
these clauses (see DESIGN.md for the substitution rationale).  The clause
objects can be pretty-printed in SMT-LIB-like syntax, which the tests use to
check the encoding's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.grammar.rtg import Nonterminal, Production, RegularTreeGrammar
from repro.grammar.transforms import normalize_for_gfa
from repro.semantics.examples import ExampleSet
from repro.sygus.spec import Specification
from repro.utils.errors import UnsupportedFeatureError


@dataclass(frozen=True)
class HornClause:
    """``head(head_args) <= body_atoms AND constraint`` in textual form."""

    head: str
    head_arguments: Tuple[str, ...]
    body_predicates: Tuple[Tuple[str, Tuple[str, ...]], ...]
    constraint: str

    def render(self) -> str:
        body_parts = [
            f"({name} {' '.join(args)})" for name, args in self.body_predicates
        ]
        if self.constraint:
            body_parts.append(self.constraint)
        body = " ".join(body_parts) if body_parts else "true"
        return f"(rule (=> (and {body}) ({self.head} {' '.join(self.head_arguments)})))"


@dataclass
class HornSystem:
    """A set of Horn clauses plus the unrealizability query."""

    clauses: List[HornClause] = field(default_factory=list)
    query: str = ""
    predicates: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"(declare-rel {name} ({' '.join(['Int'] * arity)}))"
            for name, arity in sorted(self.predicates.items())
        ]
        lines.extend(clause.render() for clause in self.clauses)
        if self.query:
            lines.append(f"(query {self.query})")
        return "\n".join(lines)


def encode_gfa_as_horn(
    grammar: RegularTreeGrammar,
    examples: ExampleSet,
    spec: Specification | None = None,
) -> HornSystem:
    """Build the Horn-clause system of §4.3 for a CLIA grammar and examples."""
    normalized = normalize_for_gfa(grammar)
    dimension = len(examples)
    system = HornSystem()
    for nonterminal in normalized.nonterminals:
        system.predicates[_predicate_name(nonterminal)] = dimension

    clause_counter = 0
    for production in normalized.productions:
        clause_counter += 1
        system.clauses.append(
            _encode_production(production, examples, clause_counter)
        )

    if spec is not None:
        outputs = [f"o{i}" for i in range(dimension)]
        spec_parts = []
        for index, example in enumerate(examples):
            inputs = " ".join(
                f"(= {name} {example.value(name)})" for name in spec.variables
            )
            spec_parts.append(f"; example {index}: {inputs}")
        system.query = (
            f"(and ({_predicate_name(normalized.start)} {' '.join(outputs)}) spec)"
        )
    return system


def _predicate_name(nonterminal: Nonterminal) -> str:
    return nonterminal.name.replace("-", "_neg")


def _encode_production(
    production: Production, examples: ExampleSet, index: int
) -> HornClause:
    dimension = len(examples)
    head = _predicate_name(production.lhs)
    head_arguments = tuple(f"v{i}" for i in range(dimension))
    name = production.symbol.name
    payload = production.symbol.payload

    body: List[Tuple[str, Tuple[str, ...]]] = []
    argument_vars: List[Tuple[str, ...]] = []
    for position, argument in enumerate(production.args):
        variables = tuple(f"a{position}_{i}" for i in range(dimension))
        argument_vars.append(variables)
        body.append((_predicate_name(argument), variables))

    constraints: List[str] = []
    if name == "Num":
        for i in range(dimension):
            constraints.append(f"(= v{i} {int(payload)})")
    elif name == "Var":
        for i, example in enumerate(examples):
            constraints.append(f"(= v{i} {example.value(str(payload))})")
    elif name == "NegVar":
        for i, example in enumerate(examples):
            constraints.append(f"(= v{i} (- {example.value(str(payload))}))")
    elif name == "BoolConst":
        for i in range(dimension):
            constraints.append(f"(= v{i} {1 if payload else 0})")
    elif name == "Pass":
        for i in range(dimension):
            constraints.append(f"(= v{i} {argument_vars[0][i]})")
    elif name == "Plus":
        for i in range(dimension):
            total = " ".join(variables[i] for variables in argument_vars)
            constraints.append(f"(= v{i} (+ {total}))")
    elif name == "IfThenElse":
        guard, then_vars, else_vars = argument_vars
        for i in range(dimension):
            constraints.append(
                f"(= v{i} (ite (= {guard[i]} 1) {then_vars[i]} {else_vars[i]}))"
            )
    elif name in ("And", "Or", "Not"):
        operator = {"And": "and", "Or": "or", "Not": "not"}[name]
        for i in range(dimension):
            operands = " ".join(f"(= {variables[i]} 1)" for variables in argument_vars)
            constraints.append(f"(= (= v{i} 1) ({operator} {operands}))")
    elif name in ("LessThan", "LessEq", "GreaterThan", "GreaterEq", "Equal"):
        operator = {
            "LessThan": "<",
            "LessEq": "<=",
            "GreaterThan": ">",
            "GreaterEq": ">=",
            "Equal": "=",
        }[name]
        left, right = argument_vars
        for i in range(dimension):
            constraints.append(f"(= (= v{i} 1) ({operator} {left[i]} {right[i]}))")
    else:
        raise UnsupportedFeatureError(f"cannot encode operator {name} as Horn clauses")

    return HornClause(
        head=head,
        head_arguments=head_arguments,
        body_predicates=tuple(body),
        constraint="(and " + " ".join(constraints) + ")" if constraints else "",
    )
