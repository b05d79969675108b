"""NOPE's encoding: the prior-work baseline of Hu et al. (CAV 2019).

NOPE proves unrealizability by building a nondeterministic *recursive
program* from the grammar — one procedure per nonterminal, returning the
output vector of a nondeterministically chosen term — and asking a software
verifier (SeaHorn, built on Spacer) whether an assertion encoding the
specification can be violated.  The reduction is described in §9 and in the
original NOPE paper.

This module constructs that program encoding explicitly
(:class:`ReachabilityProgram`) for inspection.  Without SeaHorn, the
registered ``nope`` engine (:class:`~repro.baselines.engines.Nope`) decides
the query as nayHorn does: one ``numeric`` abstract fixpoint over the GFA
equations.  Verdicts and certificates are therefore nayHorn's.  The paper's
finding that NOPE solves the same benchmarks about 19x slower than nayHorn
(§8.1) is cited, not measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.grammar.rtg import Nonterminal, RegularTreeGrammar
from repro.grammar.transforms import normalize_for_gfa
from repro.semantics.examples import ExampleSet


@dataclass
class Procedure:
    """One nondeterministic procedure of the reachability program."""

    name: str
    nonterminal: Nonterminal
    branches: List[str] = field(default_factory=list)

    def render(self) -> str:
        body = "\n".join(f"  | {branch}" for branch in self.branches)
        return f"proc {self.name}() returns (v: int^n) :=\n{body}"


@dataclass
class ReachabilityProgram:
    """The nondeterministic recursive program NOPE builds from a grammar."""

    procedures: List[Procedure]
    assertion: str

    def render(self) -> str:
        rendered = "\n\n".join(procedure.render() for procedure in self.procedures)
        return f"{rendered}\n\nassert {self.assertion}\n"


def build_reachability_program(
    grammar: RegularTreeGrammar, examples: ExampleSet, spec_description: str
) -> ReachabilityProgram:
    """Construct NOPE's program encoding (one procedure per nonterminal)."""
    normalized = normalize_for_gfa(grammar)
    procedures: List[Procedure] = []
    for nonterminal in normalized.nonterminals:
        procedure = Procedure(name=f"gen_{nonterminal.name}", nonterminal=nonterminal)
        for production in normalized.productions_of(nonterminal):
            calls = ", ".join(f"gen_{arg.name}()" for arg in production.args)
            symbol = production.symbol
            label = symbol.name if symbol.payload is None else str(symbol)
            procedure.branches.append(f"{label}({calls})" if calls else f"{label}")
        procedures.append(procedure)
    assertion = f"not ({spec_description}) for examples {examples}"
    return ReachabilityProgram(procedures, assertion)
