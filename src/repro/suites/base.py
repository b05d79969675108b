"""Shared building blocks for the benchmark suites.

Grammar constructors:

* :func:`bounded_plus_grammar` — LIA/CLIA grammars that allow at most a fixed
  number of ``Plus`` operators in any derived term (the LimitedPlus
  construction);
* :func:`bounded_ite_grammar` — CLIA grammars that allow at most a fixed
  number of ``IfThenElse`` operators (the LimitedIf construction);
* :func:`const_restricted_grammar` — CLIA grammars with an unrestricted
  amount of structure but a restricted constant pool (the LimitedConst
  construction).

Specification constructors build the QF-LIA formulas of the underlying SyGuS
competition problems (max_k, array_search_k, array_sum_k_t, linear "plane"
functions, guarded linear functions, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.grammar import alphabet as alph
from repro.grammar.alphabet import Sort
from repro.grammar.rtg import Nonterminal, Production, RegularTreeGrammar
from repro.logic.formulas import (
    Formula,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    conjunction,
    disjunction,
    implies,
)
from repro.logic.terms import LinearExpression
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.sygus.spec import OUTPUT_VARIABLE, Specification


@dataclass(frozen=True)
class Benchmark:
    """A benchmark: a SyGuS problem plus the statistics the paper reports.

    Frozen because the registry shares one instance per benchmark with
    every lookup in a process.
    """

    name: str
    suite: str
    problem: SyGuSProblem
    expected_verdict: str = "unrealizable"
    #: Statistics from Table 1 / Table 2 for the benchmark's namesake, used by
    #: the experiment harness for paper-vs-measured comparisons.  Times are in
    #: seconds; None means the paper reports a timeout for that tool.
    paper: Dict[str, Optional[float]] = field(default_factory=dict)
    #: Example sets that suffice to prove unrealizability deterministically
    #: (used by the deterministic benchmark harness; the CEGIS loop discovers
    #: equivalent sets with random seeds).
    witness_examples: Optional[ExampleSet] = None

    def __str__(self) -> str:
        return f"{self.suite}/{self.name}"


# ---------------------------------------------------------------------------
# Specification constructors
# ---------------------------------------------------------------------------


def _out() -> LinearExpression:
    return LinearExpression.variable(OUTPUT_VARIABLE)


def _var(name: str) -> LinearExpression:
    return LinearExpression.variable(name)


def linear_spec(coefficients: Dict[str, int], constant: int) -> Specification:
    """``f(x) = sum coeff_i * x_i + constant`` (the "plane" benchmarks)."""
    expression = LinearExpression(coefficients, constant)
    variables = tuple(sorted(coefficients.keys()))
    return Specification(
        atom_eq(_out(), expression),
        variables,
        description=f"f = {expression}",
    )


def max_spec(variables: Sequence[str]) -> Specification:
    """``f(xs) = max(xs)``: at least every input and equal to one of them."""
    bounds = [atom_ge(_out(), _var(name)) for name in variables]
    witness = disjunction([atom_eq(_out(), _var(name)) for name in variables])
    return Specification(
        conjunction(bounds + [witness]),
        tuple(variables),
        description=f"f = max({', '.join(variables)})",
    )


def guarded_linear_spec(
    variable: str, threshold: int, low_constant: int, high_constant: int
) -> Specification:
    """``f(x) = x + low  if x < threshold else x + high`` (guard benchmarks)."""
    x = _var(variable)
    low_case = implies(atom_lt(x, threshold), atom_eq(_out(), x + low_constant))
    high_case = implies(atom_ge(x, threshold), atom_eq(_out(), x + high_constant))
    return Specification(
        conjunction([low_case, high_case]),
        (variable,),
        description=(
            f"f({variable}) = {variable}+{low_constant} if {variable}<{threshold} "
            f"else {variable}+{high_constant}"
        ),
    )


def array_search_spec(count: int) -> Specification:
    """The SyGuS ``array_search_n`` specification.

    Inputs are ``x1 < x2 < ... < xn`` (a sorted array) and a key ``k``; the
    output is the number of array elements strictly smaller than ``k`` (the
    insertion point), required only when the array is sorted and the key
    avoids ties.
    """
    variables = tuple(f"x{i}" for i in range(1, count + 1)) + ("k",)
    key = _var("k")
    sortedness = conjunction(
        [atom_lt(_var(f"x{i}"), _var(f"x{i + 1}")) for i in range(1, count)]
    )
    cases: List[Formula] = []
    cases.append(implies(atom_lt(key, _var("x1")), atom_eq(_out(), 0)))
    for index in range(1, count):
        cases.append(
            implies(
                conjunction(
                    [atom_gt(key, _var(f"x{index}")), atom_lt(key, _var(f"x{index + 1}"))]
                ),
                atom_eq(_out(), index),
            )
        )
    cases.append(implies(atom_gt(key, _var(f"x{count}")), atom_eq(_out(), count)))
    return Specification(
        implies(sortedness, conjunction(cases)),
        variables,
        description=f"array_search_{count}",
    )


def array_sum_spec(count: int, threshold: int) -> Specification:
    """The SyGuS ``array_sum_n_t`` specification.

    The output is ``x_i + x_{i+1}`` for the first adjacent pair whose sum
    exceeds the threshold, and 0 when no pair does.
    """
    variables = tuple(f"x{i}" for i in range(1, count + 1))
    cases: List[Formula] = []
    no_earlier: List[Formula] = []
    for index in range(1, count):
        pair_sum = _var(f"x{index}") + _var(f"x{index + 1}")
        condition = conjunction(no_earlier + [atom_gt(pair_sum, threshold)])
        cases.append(implies(condition, atom_eq(_out(), pair_sum)))
        no_earlier.append(atom_le(pair_sum, threshold))
    cases.append(implies(conjunction(no_earlier), atom_eq(_out(), 0)))
    return Specification(
        conjunction(cases),
        variables,
        description=f"array_sum_{count}_{threshold}",
    )


def scaled_variable_spec(variable: str, factor: int, constant: int) -> Specification:
    """``f(x) = factor*x + constant`` (the running example has factor 2)."""
    return Specification(
        atom_eq(_out(), _var(variable).scale(factor) + constant),
        (variable,),
        description=f"f({variable}) = {factor}{variable}+{constant}",
    )


# ---------------------------------------------------------------------------
# Grammar constructors
# ---------------------------------------------------------------------------


def _leaf_productions(
    lhs: Nonterminal, variables: Sequence[str], constants: Sequence[int]
) -> List[Production]:
    productions = [Production(lhs, alph.var(name), ()) for name in variables]
    productions.extend(Production(lhs, alph.num(value), ()) for value in constants)
    return productions


def bounded_plus_grammar(
    variables: Sequence[str],
    constants: Sequence[int],
    plus_budget: int,
    with_ite: bool = False,
    comparison_constants: Sequence[int] = (),
    name: str = "limited_plus",
) -> RegularTreeGrammar:
    """A grammar whose terms contain at most ``plus_budget`` Plus operators.

    Nonterminal ``P_i`` derives terms using at most ``i`` additions; the start
    symbol is ``P_{plus_budget}``.  With ``with_ite`` the top level may also
    branch on comparisons between atoms (conditionals do not consume the Plus
    budget, matching the LimitedPlus construction).
    """
    atoms = Nonterminal("A", Sort.INT)
    levels = [Nonterminal(f"P{i}", Sort.INT) for i in range(plus_budget + 1)]
    nonterminals: List[Nonterminal] = [atoms] + levels
    productions: List[Production] = _leaf_productions(atoms, variables, constants)
    productions.append(Production(levels[0], alph.pass_through(Sort.INT), (atoms,)))
    for index in range(1, plus_budget + 1):
        productions.append(
            Production(levels[index], alph.plus(2), (atoms, levels[index - 1]))
        )
        productions.append(
            Production(levels[index], alph.pass_through(Sort.INT), (levels[index - 1],))
        )
    start = levels[plus_budget]

    if with_ite:
        guard = Nonterminal("B", Sort.BOOL)
        top = Nonterminal("Start", Sort.INT)
        nonterminals = [top, guard] + nonterminals
        productions.append(Production(top, alph.pass_through(Sort.INT), (start,)))
        productions.append(Production(top, alph.if_then_else(), (guard, start, top)))
        productions.append(Production(guard, alph.less_eq(), (atoms, atoms)))
        productions.append(Production(guard, alph.less_than(), (atoms, atoms)))
        productions.append(Production(guard, alph.and_(), (guard, guard)))
        comparison_nts = []
        for value in comparison_constants:
            constant_nt = Nonterminal(f"C{value}", Sort.INT)
            comparison_nts.append(constant_nt)
            productions.append(Production(constant_nt, alph.num(value), ()))
            productions.append(Production(guard, alph.less_than(), (atoms, constant_nt)))
        nonterminals.extend(comparison_nts)
        start = top

    return RegularTreeGrammar(nonterminals, start, productions, name=name)


def bounded_ite_grammar(
    variables: Sequence[str],
    constants: Sequence[int],
    ite_budget: int,
    plus_depth: int = 1,
    name: str = "limited_if",
) -> RegularTreeGrammar:
    """A grammar whose terms contain at most ``ite_budget`` IfThenElse operators.

    Nonterminal ``I_i`` derives terms with at most ``i`` conditionals; the
    arithmetic layer allows sums of up to ``plus_depth + 1`` atoms (the
    LimitedIf family does not restrict Plus, but keeping the arithmetic layer
    shallow keeps grammar sizes close to the originals).
    """
    atoms = Nonterminal("A", Sort.INT)
    arith = Nonterminal("E", Sort.INT)
    guard = Nonterminal("B", Sort.BOOL)
    levels = [Nonterminal(f"I{i}", Sort.INT) for i in range(ite_budget + 1)]
    nonterminals = [levels[-1]] + levels[:-1] + [guard, arith, atoms]

    productions: List[Production] = _leaf_productions(atoms, variables, constants)
    productions.append(Production(arith, alph.pass_through(Sort.INT), (atoms,)))
    productions.append(Production(arith, alph.plus(2), (atoms, arith)))
    productions.append(Production(guard, alph.less_eq(), (arith, arith)))
    productions.append(Production(guard, alph.less_than(), (arith, arith)))
    productions.append(Production(levels[0], alph.pass_through(Sort.INT), (arith,)))
    for index in range(1, ite_budget + 1):
        productions.append(
            Production(
                levels[index],
                alph.if_then_else(),
                (guard, levels[index - 1], levels[index - 1]),
            )
        )
        productions.append(
            Production(levels[index], alph.pass_through(Sort.INT), (levels[index - 1],))
        )
    return RegularTreeGrammar(
        nonterminals, levels[ite_budget], productions, name=name
    )


def const_restricted_grammar(
    variables: Sequence[str],
    constants: Sequence[int],
    with_ite: bool = True,
    name: str = "limited_const",
) -> RegularTreeGrammar:
    """A full CLIA grammar whose constant pool is restricted to ``constants``."""
    start = Nonterminal("Start", Sort.INT)
    guard = Nonterminal("B", Sort.BOOL)
    nonterminals = [start, guard] if with_ite else [start]
    productions: List[Production] = _leaf_productions(start, variables, constants)
    productions.append(Production(start, alph.plus(2), (start, start)))
    if with_ite:
        productions.append(Production(start, alph.if_then_else(), (guard, start, start)))
        productions.append(Production(guard, alph.less_eq(), (start, start)))
        productions.append(Production(guard, alph.less_than(), (start, start)))
    return RegularTreeGrammar(nonterminals, start, productions, name=name)


def make_benchmark(
    name: str,
    suite: str,
    grammar: RegularTreeGrammar,
    spec: Specification,
    logic: str,
    paper: Dict[str, Optional[float]],
    witness_examples: Optional[ExampleSet] = None,
    expected_verdict: str = "unrealizable",
) -> Benchmark:
    """Package a grammar and a spec into a :class:`Benchmark`."""
    problem = SyGuSProblem(name=name, grammar=grammar, spec=spec, logic=logic)
    return Benchmark(
        name=name,
        suite=suite,
        problem=problem,
        expected_verdict=expected_verdict,
        paper=paper,
        witness_examples=witness_examples,
    )
