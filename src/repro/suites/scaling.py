"""Synthetic scaling benchmarks for Figures 2, 3 and 5.

Figure 2 plots the time NaySL spends computing semi-linear sets against the
number of nonterminals |N| for |E| in {1, 2, 3, 4}; Figures 3 and 5 plot the
running time of NayHorn and NOPE against |E| for |N| in {1, 2, 3}.  The
workload is the natural generalisation of the paper's running example: chain
grammars whose terms all evaluate to multiples of ``length * x``
(``Start ::= Plus(S1, Start) | 0``, ``S1 ::= Plus(S2, x)``, ...,
``S_length ::= x``), with the specification ``f(x) = 2x + 2`` that such
grammars cannot meet.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.grammar import alphabet as alph
from repro.grammar.rtg import Nonterminal, Production, RegularTreeGrammar
from repro.semantics.examples import Example, ExampleSet
from repro.suites.base import Benchmark, make_benchmark, scaled_variable_spec

SUITE = "Scaling"


def chain_grammar(length: int, name: str = "chain") -> RegularTreeGrammar:
    """The footnote-1 expansion of the running example with ``length`` links.

    Terms of the grammar evaluate to ``k * length * x`` for ``k >= 0``; the
    grammar has ``length + 2`` nonterminals (Start, S1..S_length, and a shared
    nonterminal for the variable leaf).
    """
    start = Nonterminal("Start")
    links = [Nonterminal(f"S{i}") for i in range(1, length + 1)]
    variable_nt = Nonterminal("VX")
    nonterminals = [start] + links + [variable_nt]

    productions: List[Production] = [
        Production(start, alph.plus(2), (links[0], start)),
        Production(start, alph.num(0), ()),
        Production(variable_nt, alph.var("x"), ()),
    ]
    for index, link in enumerate(links):
        if index + 1 < len(links):
            productions.append(
                Production(link, alph.plus(2), (links[index + 1], variable_nt))
            )
        else:
            productions.append(Production(link, alph.var("x"), ()))
    return RegularTreeGrammar(nonterminals, start, productions, name=name)


def redundant_chain_grammar(
    length: int, fanout: int = 3, name: str = "redundant_chain"
) -> RegularTreeGrammar:
    """A chain grammar inflated with observationally-equal link copies.

    Every link ``S_i`` of :func:`chain_grammar` becomes ``fanout`` copies
    ``S_i_0 .. S_i_{fanout-1}`` that each reference *every* copy of the next
    link, so the grammar has ``O(length * fanout^2)`` productions — the
    grammar-scale slate for the tree-automaton perf suite.  Copies alternate
    the argument order of ``Plus`` (``Plus(next, x)`` vs ``Plus(x, next)``),
    so they are **not** structurally identical (language-preserving
    ``reduce`` merging cannot collapse them across parities) but evaluate
    identically on every example — exactly the redundancy
    observational-equivalence pruning exists to remove.  The generated
    language is unchanged: every term still evaluates to a multiple of
    ``length * x``.
    """
    start = Nonterminal("Start")
    copies = [
        [Nonterminal(f"S{i}_{j}") for j in range(fanout)]
        for i in range(1, length + 1)
    ]
    variable_nt = Nonterminal("VX")
    nonterminals = [start] + [nt for row in copies for nt in row] + [variable_nt]

    productions: List[Production] = [Production(start, alph.num(0), ())]
    productions.append(Production(variable_nt, alph.var("x"), ()))
    for first_copy in copies[0]:
        productions.append(Production(start, alph.plus(2), (first_copy, start)))
    for index, row in enumerate(copies):
        for copy_index, link in enumerate(row):
            if index + 1 < len(copies):
                for successor in copies[index + 1]:
                    args = (
                        (successor, variable_nt)
                        if copy_index % 2 == 0
                        else (variable_nt, successor)
                    )
                    productions.append(Production(link, alph.plus(2), args))
            else:
                productions.append(Production(link, alph.var("x"), ()))
    return RegularTreeGrammar(nonterminals, start, productions, name=name)


def redundant_expression_grammar(
    fanout: int = 3, name: str = "redundant_expr"
) -> RegularTreeGrammar:
    """``fanout`` language-equal copies of a small LIA expression grammar.

    ``Start ::= E_0`` and every ``E_j ::= x | 0 | 1 | Plus(E_k, E_l) |
    Minus(E_k, E_l)`` over all copy pairs ``(k, l)`` — ``2 * fanout^2 + 3``
    productions per copy, all generating the same expression language.  The
    enumerator benchmark workload: terms here have genuinely diverse
    behavior vectors (unlike the chain grammars, whose terms are all
    multiples of ``length * x``), so bottom-up enumeration keeps many
    distinct candidates per size while a reference enumerator re-derives
    every copy's identical table ``fanout`` times over.
    """
    start = Nonterminal("Start")
    exprs = [Nonterminal(f"E{j}") for j in range(fanout)]
    productions: List[Production] = [Production(start, alph.pass_through(alph.Sort.INT), (exprs[0],))]
    for expr in exprs:
        productions.append(Production(expr, alph.var("x"), ()))
        productions.append(Production(expr, alph.num(0), ()))
        productions.append(Production(expr, alph.num(1), ()))
        for left in exprs:
            for right in exprs:
                productions.append(Production(expr, alph.plus(2), (left, right)))
                productions.append(Production(expr, alph.minus(), (left, right)))
    return RegularTreeGrammar([start] + exprs, start, productions, name=name)


def redundant_expression_benchmark(fanout: int = 3) -> Benchmark:
    """``f(x) = 2x + 2`` over the redundant expression grammar.

    Unlike the chain benchmarks this spec is *realizable*
    (``Plus(Plus(x, x), Plus(1, 1))``), and deep enough that a size-ordered
    search keeps many distinct candidates before reaching it — the shape
    the enumerator benchmark wants.
    """
    grammar = redundant_expression_grammar(fanout, name=f"redundant_expr_{fanout}")
    spec = scaled_variable_spec("x", 2, 2)
    return make_benchmark(
        f"redundant_expr_{fanout}",
        SUITE,
        grammar,
        spec,
        "LIA",
        {
            "nonterminals": grammar.num_nonterminals,
            "productions": grammar.num_productions,
            "fanout": fanout,
        },
        witness_examples=example_set(1),
    )


def example_set(size: int) -> ExampleSet:
    """The example sets used for the scaling sweeps: x = 1, 2, 3, ..."""
    return ExampleSet(Example.of({"x": value}) for value in range(1, size + 1))


def large_example_set(
    count: int,
    variables: Tuple[str, ...] = ("x",),
    seed: int = 0,
    low: int = -1_000_000,
    high: int = 1_000_000,
) -> ExampleSet:
    """A deterministic pseudo-random example set of *exactly* ``count``.

    ``example_set`` enumerates ``x = 1..n``, which keeps interval bounds
    artificially tidy; the columnar perf suite and the differential tests
    want *unstructured* inputs at sizes up to a few thousand.  The values
    are drawn from ``random.Random(seed)``; duplicate assignments are
    re-drawn (``ExampleSet`` is duplicate-free), so the same ``(count,
    variables, seed, low, high)`` always yields the same set and a longer
    set extends a shorter one prefix-for-prefix.
    """
    rng = random.Random(seed)
    seen = set()
    examples = []
    while len(examples) < count:
        assignment = {name: rng.randint(low, high) for name in variables}
        key = tuple(sorted(assignment.items()))
        if key in seen:
            continue
        seen.add(key)
        examples.append(Example.of(assignment))
    result = ExampleSet(examples)
    assert len(result) == count
    return result


def scaling_benchmark(num_nonterminals: int) -> Benchmark:
    """One scaling benchmark with approximately ``num_nonterminals`` nonterminals."""
    length = max(1, num_nonterminals - 2)
    grammar = chain_grammar(length, name=f"chain_{num_nonterminals}")
    spec = scaled_variable_spec("x", 2, 2)
    return make_benchmark(
        f"chain_{num_nonterminals}",
        SUITE,
        grammar,
        spec,
        "LIA",
        {"nonterminals": grammar.num_nonterminals},
        witness_examples=example_set(1),
    )


def scaling_suite(sizes: Optional[List[int]] = None) -> List[Benchmark]:
    """The grammars used for Fig. 2 (|N| sweep) and Figs. 3/5 (|E| sweep)."""
    if sizes is None:
        sizes = [3, 5, 8, 11, 14, 17, 20, 23, 26]
    return [scaling_benchmark(size) for size in sizes]
