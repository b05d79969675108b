"""Ranked alphabets for LIA and CLIA terms (§3.1, Ex. 3.6, §6.1).

A ranked alphabet is a finite set of symbols each carrying an arity (rank).
The paper fixes two families of alphabets:

* LIA:  ``Plus``, ``Minus``, ``Num(c)`` for integer constants ``c``, and
  ``Var(x)`` for input variables ``x``;
* CLIA: LIA plus ``IfThenElse``, ``And``, ``Or``, ``Not``, ``LessThan``,
  ``LessEq``, ``Equal`` and Boolean constants.

The rewriting of §5.2 additionally introduces ``NegVar(x)`` (and, for CLIA+,
negated constants) so that ``Minus`` can be eliminated.

Symbols also carry a *sort* (integer or Boolean) for their result and for each
argument, which the CLIA machinery of §6 uses to separate integer nonterminals
from Boolean nonterminals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.utils.errors import GrammarError


class Sort(enum.Enum):
    """The two sorts of the CLIA background theory."""

    INT = "Int"
    BOOL = "Bool"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Symbol:
    """A ranked, sorted alphabet symbol.

    ``name`` identifies the operator (``"Plus"``, ``"Num"``, ...).
    ``payload`` carries the constant value for ``Num``/``BoolConst`` symbols or
    the variable name for ``Var``/``NegVar`` symbols; it is ``None`` for the
    proper operators.
    """

    name: str
    arity: int
    result_sort: Sort
    argument_sorts: Tuple[Sort, ...] = ()
    payload: Optional[object] = None

    def __post_init__(self) -> None:
        if len(self.argument_sorts) != self.arity:
            raise GrammarError(
                f"symbol {self.name} declares arity {self.arity} but "
                f"{len(self.argument_sorts)} argument sorts"
            )
        # Symbols are hashed constantly (term interning, enumeration tables,
        # automaton rule maps); cache the hash instead of re-deriving it from
        # five fields on every lookup.
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    self.name,
                    self.arity,
                    self.result_sort,
                    self.argument_sorts,
                    self.payload,
                )
            ),
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        if self.payload is not None:
            return f"{self.name}({self.payload})"
        return self.name

    def __repr__(self) -> str:
        return f"Symbol({self})"


# ---------------------------------------------------------------------------
# Constructors for the fixed LIA / CLIA symbol families.
# ---------------------------------------------------------------------------

_INT = Sort.INT
_BOOL = Sort.BOOL


def plus(arity: int = 2) -> Symbol:
    """The n-ary addition symbol; the paper allows n-ary Plus for readability."""
    if arity < 2:
        raise GrammarError("Plus requires arity >= 2")
    return Symbol("Plus", arity, _INT, tuple([_INT] * arity))


def minus() -> Symbol:
    return Symbol("Minus", 2, _INT, (_INT, _INT))


def num(value: int) -> Symbol:
    return Symbol("Num", 0, _INT, (), int(value))


def var(name: str) -> Symbol:
    return Symbol("Var", 0, _INT, (), name)


def neg_var(name: str) -> Symbol:
    """The NegVar(x) symbol introduced by the Minus-removal rewrite (§5.2)."""
    return Symbol("NegVar", 0, _INT, (), name)


def if_then_else() -> Symbol:
    return Symbol("IfThenElse", 3, _INT, (_BOOL, _INT, _INT))


def and_() -> Symbol:
    return Symbol("And", 2, _BOOL, (_BOOL, _BOOL))


def or_() -> Symbol:
    return Symbol("Or", 2, _BOOL, (_BOOL, _BOOL))


def not_() -> Symbol:
    return Symbol("Not", 1, _BOOL, (_BOOL,))


def less_than() -> Symbol:
    return Symbol("LessThan", 2, _BOOL, (_INT, _INT))


def less_eq() -> Symbol:
    return Symbol("LessEq", 2, _BOOL, (_INT, _INT))


def greater_than() -> Symbol:
    return Symbol("GreaterThan", 2, _BOOL, (_INT, _INT))


def greater_eq() -> Symbol:
    return Symbol("GreaterEq", 2, _BOOL, (_INT, _INT))


def equal() -> Symbol:
    return Symbol("Equal", 2, _BOOL, (_INT, _INT))


def bool_const(value: bool) -> Symbol:
    return Symbol("BoolConst", 0, _BOOL, (), bool(value))


def pass_through(sort: Sort) -> Symbol:
    """The identity symbol used to model unit productions ``A ::= B``.

    Def. 3.1 requires every production to apply an alphabet symbol, but SyGuS
    grammars (and the paper's own example grammar G2 in Eqn. (5)) freely use
    alternatives that are bare nonterminals.  ``Pass`` is an explicit identity
    operator — its concrete and abstract semantics are both the identity — so
    unit productions fit Def. 3.1 without changing the generated language.
    """
    return Symbol("Pass", 1, sort, (sort,))


#: Operator names that belong to the LIA fragment (Ex. 3.6) and to the LIA+
#: fragment produced by the Minus-removal rewrite (§5.2).
LIA_OPERATORS = frozenset({"Plus", "Minus", "Num", "Var", "Pass"})
LIA_PLUS_OPERATORS = frozenset({"Plus", "Num", "Var", "NegVar", "Pass"})

#: Operator names of the full CLIA fragment (§6.1), including the comparison
#: operators the SyGuS benchmarks use (the paper's grammar lists LessThan;
#: LessEq/GreaterThan/GreaterEq/Equal desugar to it but we support them
#: natively for convenience).
CLIA_OPERATORS = LIA_OPERATORS | {
    "IfThenElse",
    "And",
    "Or",
    "Not",
    "LessThan",
    "LessEq",
    "GreaterThan",
    "GreaterEq",
    "Equal",
    "BoolConst",
    "NegVar",
    "Pass",
}


class RankedAlphabet:
    """A finite collection of :class:`Symbol` values with name-based lookup.

    A grammar's alphabet is derived from its productions, but an explicit
    alphabet object is convenient for validation and for the SyGuS printer.
    """

    def __init__(self, symbols: Iterable[Symbol] = ()):
        self._symbols: Dict[Tuple[str, int, object], Symbol] = {}
        for symbol in symbols:
            self.add(symbol)

    def add(self, symbol: Symbol) -> None:
        # The paper allows n-ary Plus for readability (footnote 1), so symbols
        # are keyed by name *and* arity: Plus/2 and Plus/4 may coexist.
        key = (symbol.name, symbol.arity, symbol.payload)
        existing = self._symbols.get(key)
        if existing is not None and existing != symbol:
            raise GrammarError(f"conflicting declarations for symbol {symbol.name}")
        self._symbols[key] = symbol

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols.values())

    def __len__(self) -> int:
        return len(self._symbols)

    def __contains__(self, symbol: Symbol) -> bool:
        return self._symbols.get((symbol.name, symbol.arity, symbol.payload)) == symbol

    def names(self) -> Iterable[str]:
        return {symbol.name for symbol in self._symbols.values()}

    def is_lia(self) -> bool:
        return set(self.names()) <= LIA_OPERATORS

    def is_lia_plus(self) -> bool:
        return set(self.names()) <= LIA_PLUS_OPERATORS

    def is_clia(self) -> bool:
        return set(self.names()) <= CLIA_OPERATORS
