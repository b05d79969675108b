"""An independent static checker for unrealizability certificates.

Every engine attaches a *certificate* to an ``UNREALIZABLE`` verdict (see
:mod:`repro.unreal.certificates` for the builders).  This module re-verifies
such a certificate from first principles, without re-running any engine,
fixpoint driver, or solver:

* ``unproductive`` — the grammar's start nonterminal derives no term at all;
  re-checked with the pure productivity fixed point.
* ``abstract_fixpoint`` — one abstract value per nonterminal of the
  GFA-normalized grammar (interval boxes, interval×congruence products, or
  concrete powersets).  Checked for **inductiveness** — every production's
  abstract transfer applied to the claimed values stays below the claimed
  left-hand-side value, one local lattice check per production — and
  **refutation** — the start nonterminal's value excludes every output the
  specification accepts on the certificate's examples.
* ``semilinear_fixpoint`` — the exact engine's semi-linear fixpoint, with a
  per-equation *subsumption justification* (explicit non-negative integer
  combinations) wherever a transferred linear set is not literally one of
  the claimed sets.  Refutation is discharged by a small built-in rational
  Fourier–Motzkin refuter over the symbolic members of each linear set.
* ``chc_model`` — the Horn-clause engine's model.  The clause system is
  re-encoded and compared verbatim, then each production clause is checked
  as a numeric transfer inclusion and the query clause as a refutation.

Trust base
----------

The checker reuses only the lattice/transfer *definitions*
(:mod:`repro.domains`), the term/grammar syntax (:mod:`repro.grammar`), the
pure clause encoder (:mod:`repro.horn.clauses`) and the formula AST
(:mod:`repro.logic.formulas`/``terms``).  It must never import
``repro.gfa.fixpoint``, ``repro.gfa.newton``, ``repro.logic.solver`` or
``repro.domains.clia`` (which pulls the solver in at module level) — a bug
in the fixpoint or DPLL(T) core then cannot self-certify.
``tests/test_certcheck.py`` enforces this both statically and by importing
this module under a blocker that poisons those modules.

Soundness notes
---------------

Inductiveness of the claimed values plus a refuting start value is exactly
the premise of Alg. 1's soundness argument (Thm. 4.5(1)): the claimed
values over-approximate every derivable term's behavior on the examples, so
an excluded specification means no term in the grammar satisfies the spec
on the examples — and unrealizability on any genuine finite example set
lifts to the full problem (Lem. 3.5).  Per-example refutation is complete
for product-shaped values because the instantiated specification splits
into one conjunct per example, each over a single output variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.domains.base import AbstractDomain
from repro.domains.boolvectors import BoolVectorSet
from repro.domains.interval import (
    Box,
    interval_comparison,
    satisfiable_on_interval,
    satisfiable_on_interval_congruence,
)
from repro.domains.numeric import Congruence, Interval, ProductValue
from repro.domains.powerset import VectorSet
from repro.domains.registry import create_domain
from repro.domains.semilinear import LinearSet, SemiLinearSet
from repro.grammar.alphabet import Sort
from repro.grammar.analysis import productive_nonterminals
from repro.grammar.rtg import Nonterminal, Production, RegularTreeGrammar
from repro.grammar.transforms import normalize_for_gfa
from repro.horn.clauses import _predicate_name, encode_gfa_as_horn
from repro.logic.formulas import (
    Atom,
    And,
    BoolLit,
    Comparison,
    FALSE,
    Formula,
    Not,
    Or,
    TRUE,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_le,
    atom_lt,
    conjunction,
    disjunction,
    make_atom,
    negation,
)
from repro.logic.terms import LinearExpression
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.sygus.spec import Specification
from repro.utils.vectors import BoolVector, IntVector

#: The certificate payload format this checker understands.
CERTIFICATE_FORMAT = 1

#: Output variable used when instantiating the specification for refutation.
#: Deliberately distinct from every engine's choice so a certificate cannot
#: smuggle constraints onto the checker's variable.
_OUT = "__cert_out"

#: Abstract domains the ``abstract_fixpoint`` kind may name.  These are the
#: domains whose transfer/lattice definitions are pure (no solver import).
_SUPPORTED_DOMAINS = ("interval", "numeric", "powerset")

#: Knobs each supported domain may carry in a certificate.
_ALLOWED_KNOBS = {
    "interval": frozenset(),
    "numeric": frozenset(),
    "powerset": frozenset({"cap", "max_examples"}),
}

#: Expected integer-sort value class per supported domain.
_INT_VALUE_TYPES = {"interval": Box, "numeric": ProductValue, "powerset": VectorSet}

#: Caps for the built-in refuter: beyond these it *gives up* (rejects the
#: certificate) rather than spending unbounded time.  Both directions stay
#: sound — the checker only ever errs toward rejection.
_DNF_LIMIT = 4096
_FM_ROW_LIMIT = 4096
_ELIMINATION_FUEL = 400
_BOX_PROPAGATION_FUEL = 256
_BOX_ENUM_LIMIT = 4096


class _Malformed(Exception):
    """Internal: a structural problem in the certificate payload."""


@dataclass
class CertcheckResult:
    """The outcome of one certificate check.

    ``ok`` is True only when every local obligation was verified; ``reason``
    explains the first failed obligation otherwise.
    """

    ok: bool
    kind: str = ""
    reason: str = ""
    productions_checked: int = 0
    refutation_checked: bool = False

    def __bool__(self) -> bool:
        return self.ok


def _reject(kind: str, reason: str) -> CertcheckResult:
    return CertcheckResult(ok=False, kind=kind, reason=reason)


def check_certificate(
    problem: SyGuSProblem, certificate: object
) -> CertcheckResult:
    """Re-verify an unrealizability certificate against ``problem``.

    Never raises: malformed payloads are rejected with a reason.  A ``True``
    result means unrealizability of ``problem`` has been independently
    established from the certificate's contents alone.
    """
    if not isinstance(certificate, dict):
        return _reject("", "certificate must be a JSON object")
    kind = certificate.get("kind")
    if certificate.get("format") != CERTIFICATE_FORMAT:
        return _reject(
            str(kind or ""),
            f"unsupported certificate format {certificate.get('format')!r}",
        )
    try:
        if kind == "unproductive":
            return _check_unproductive(problem, certificate)
        if kind == "abstract_fixpoint":
            return _check_abstract(problem, certificate)
        if kind == "semilinear_fixpoint":
            return _check_semilinear(problem, certificate)
        if kind == "chc_model":
            return _check_chc(problem, certificate)
    except _Malformed as error:
        return _reject(str(kind), str(error))
    except Exception as error:  # noqa: BLE001 - a checker must not crash
        return _reject(
            str(kind), f"malformed certificate: {type(error).__name__}: {error}"
        )
    return _reject(str(kind), f"unknown certificate kind: {kind!r}")


# ---------------------------------------------------------------------------
# Payload decoding
# ---------------------------------------------------------------------------


def _require_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _Malformed(f"{what} must be an integer, got {value!r}")
    return value


def _decode_examples(certificate: Dict[str, object]) -> ExampleSet:
    raw = certificate.get("examples")
    if not isinstance(raw, (list, tuple)) or not raw:
        raise _Malformed("certificate carries no examples")
    assignments = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise _Malformed("each example must be a variable->integer object")
        assignments.append(
            {str(name): _require_int(value, f"example value for {name}")
             for name, value in entry.items()}
        )
    return ExampleSet.from_dicts(assignments)


def encode_interval(interval: Interval) -> List[Optional[int]]:
    if interval.is_empty():
        return [0, -1]
    return [interval.low, interval.high]


def _decode_interval(raw: object) -> Interval:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise _Malformed(f"interval must be a [low, high] pair, got {raw!r}")
    low = None if raw[0] is None else _require_int(raw[0], "interval bound")
    high = None if raw[1] is None else _require_int(raw[1], "interval bound")
    interval = Interval(low, high)
    # Canonicalise the empty interval so lattice equality is structural.
    return Interval.empty() if interval.is_empty() else interval


def _decode_congruence(raw: object) -> Congruence:
    if raw is None:
        return Congruence.empty_value()
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise _Malformed(f"congruence must be null or [r, m], got {raw!r}")
    remainder = _require_int(raw[0], "congruence remainder")
    modulus = _require_int(raw[1], "congruence modulus")
    if modulus < 0 or (modulus > 0 and not 0 <= remainder < modulus):
        raise _Malformed(f"congruence [{remainder}, {modulus}] is not normalised")
    return Congruence(remainder, modulus)


def _decode_int_vector(raw: object, dimension: int) -> IntVector:
    if not isinstance(raw, (list, tuple)) or len(raw) != dimension:
        raise _Malformed(f"vector must have {dimension} components, got {raw!r}")
    return IntVector(tuple(_require_int(v, "vector component") for v in raw))


def encode_value(value: object) -> Dict[str, object]:
    """Serialise one abstract value into its JSON certificate form."""
    if isinstance(value, Box):
        return {
            "type": "box",
            "intervals": [encode_interval(iv) for iv in value.intervals],
        }
    if isinstance(value, ProductValue):
        return {
            "type": "product",
            "intervals": [encode_interval(iv) for iv in value.intervals],
            "congruences": [
                None if c.is_empty() else [c.remainder, c.modulus]
                for c in value.congruences
            ],
        }
    if isinstance(value, VectorSet):
        return {
            "type": "vector_set",
            "is_top": value.is_top,
            "vectors": [list(vector.values) for vector in value],
        }
    if isinstance(value, BoolVectorSet):
        return {
            "type": "bool_set",
            "bits": sorted(vector.bits for vector in value),
        }
    if isinstance(value, SemiLinearSet):
        return {
            "type": "semilinear",
            "linear_sets": [
                {
                    "offset": list(ls.offset.values),
                    "generators": [list(g.values) for g in ls.generators],
                }
                for ls in value.linear_sets
            ],
        }
    raise _Malformed(f"cannot encode abstract value of type {type(value).__name__}")


def decode_value(raw: object, dimension: int) -> object:
    """Deserialise one abstract value; validates shape and dimension."""
    if not isinstance(raw, dict):
        raise _Malformed(f"abstract value must be an object, got {raw!r}")
    value_type = raw.get("type")
    if value_type == "box":
        intervals = raw.get("intervals")
        if not isinstance(intervals, (list, tuple)) or len(intervals) != dimension:
            raise _Malformed(f"box must carry {dimension} intervals")
        return Box([_decode_interval(entry) for entry in intervals])
    if value_type == "product":
        intervals = raw.get("intervals")
        congruences = raw.get("congruences")
        if (
            not isinstance(intervals, (list, tuple))
            or not isinstance(congruences, (list, tuple))
            or len(intervals) != dimension
            or len(congruences) != dimension
        ):
            raise _Malformed(
                f"product must carry {dimension} intervals and congruences"
            )
        return ProductValue(
            tuple(_decode_interval(entry) for entry in intervals),
            tuple(_decode_congruence(entry) for entry in congruences),
        )
    if value_type == "vector_set":
        if raw.get("is_top"):
            return VectorSet.top(dimension)
        vectors = raw.get("vectors")
        if not isinstance(vectors, (list, tuple)):
            raise _Malformed("vector_set must carry a vector list")
        return VectorSet.of(
            [_decode_int_vector(entry, dimension) for entry in vectors], dimension
        )
    if value_type == "bool_set":
        bits = raw.get("bits")
        if not isinstance(bits, (list, tuple)):
            raise _Malformed("bool_set must carry a bits list")
        decoded = []
        for pattern in bits:
            pattern = _require_int(pattern, "bool_set bits")
            if not 0 <= pattern < (1 << dimension):
                raise _Malformed(f"bit pattern {pattern} out of range")
            decoded.append(pattern)
        return BoolVectorSet.from_packed(decoded, dimension)
    if value_type == "semilinear":
        entries = raw.get("linear_sets")
        if not isinstance(entries, (list, tuple)):
            raise _Malformed("semilinear must carry a linear_sets list")
        linear_sets = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise _Malformed("each linear set must be an object")
            offset = _decode_int_vector(entry.get("offset"), dimension)
            generators_raw = entry.get("generators", [])
            if not isinstance(generators_raw, (list, tuple)):
                raise _Malformed("generators must be a list")
            generators = [
                _decode_int_vector(g, dimension) for g in generators_raw
            ]
            linear_sets.append(LinearSet(offset, generators))
        return SemiLinearSet(linear_sets, dimension)
    raise _Malformed(f"unknown abstract value type {value_type!r}")


# ---------------------------------------------------------------------------
# Kind: unproductive
# ---------------------------------------------------------------------------


def _check_unproductive(
    problem: SyGuSProblem, certificate: Dict[str, object]
) -> CertcheckResult:
    productive = productive_nonterminals(problem.grammar)
    if problem.grammar.start in productive:
        return _reject("unproductive", "the start nonterminal is productive")
    return CertcheckResult(ok=True, kind="unproductive")


# ---------------------------------------------------------------------------
# Kind: abstract_fixpoint (and the numeric leg of chc_model)
# ---------------------------------------------------------------------------


def _decode_domain_values(
    grammar: RegularTreeGrammar,
    raw_values: object,
    dimension: int,
    int_type: type,
    key_of,
) -> Dict[Nonterminal, object]:
    if not isinstance(raw_values, dict):
        raise _Malformed("certificate values must be an object")
    values: Dict[Nonterminal, object] = {}
    for nonterminal in grammar.nonterminals:
        key = key_of(nonterminal)
        raw = raw_values.get(key)
        if raw is None:
            raise _Malformed(f"no claimed value for nonterminal {key}")
        value = decode_value(raw, dimension)
        expected = BoolVectorSet if nonterminal.sort == Sort.BOOL else int_type
        if not isinstance(value, expected):
            raise _Malformed(
                f"value for {key} has type {type(value).__name__}, "
                f"expected {expected.__name__}"
            )
        values[nonterminal] = value
    return values


def _check_inductive(
    domain: AbstractDomain,
    grammar: RegularTreeGrammar,
    values: Dict[Nonterminal, object],
    examples: ExampleSet,
) -> Optional[str]:
    """One local lattice check per production; None when all hold."""
    for production in grammar.productions:
        arguments = [values[argument] for argument in production.args]
        computed = domain.transfer(production, arguments, examples)
        claimed = values[production.lhs]
        if not domain.equal(domain.join(computed, claimed), claimed):
            return (
                f"production {production.lhs.name} <- {production.symbol} "
                "transfers above its claimed value"
            )
    return None


def _refutes_value(
    value: object, spec: Specification, examples: ExampleSet
) -> bool:
    """Does the claimed start value exclude every spec-satisfying output?"""
    if isinstance(value, VectorSet):
        if value.is_top:
            return False
        for vector in value:
            if all(
                spec.holds_on_example(example, vector[index])
                for index, example in enumerate(examples)
            ):
                return False
        return True
    if isinstance(value, Box):
        intervals: Sequence[Interval] = value.intervals
        congruences: Optional[Sequence[Congruence]] = None
    elif isinstance(value, ProductValue):
        intervals = value.intervals
        congruences = value.congruences
    else:
        return False
    output = LinearExpression.variable(_OUT)
    # The instantiated spec is a conjunction with one independent output
    # variable per example, so unsatisfiability of any single conjunct over
    # its component refutes the whole box/product (and is complete for it).
    for index, example in enumerate(examples):
        formula = spec.instantiate(example, output)
        if congruences is None:
            if not satisfiable_on_interval(formula, _OUT, intervals[index]):
                return True
        elif not satisfiable_on_interval_congruence(
            formula, _OUT, intervals[index], congruences[index]
        ):
            return True
    return False


def _check_abstract(
    problem: SyGuSProblem, certificate: Dict[str, object]
) -> CertcheckResult:
    kind = "abstract_fixpoint"
    domain_name = certificate.get("domain")
    if domain_name not in _SUPPORTED_DOMAINS:
        return _reject(kind, f"unsupported abstract domain {domain_name!r}")
    knobs_raw = certificate.get("domain_knobs") or {}
    if not isinstance(knobs_raw, dict):
        return _reject(kind, "domain_knobs must be an object")
    allowed = _ALLOWED_KNOBS[domain_name]
    knobs = {}
    for name, value in knobs_raw.items():
        if name not in allowed:
            return _reject(kind, f"unknown domain knob {name!r}")
        knobs[name] = _require_int(value, f"domain knob {name}")
    domain = create_domain(domain_name, **knobs)
    examples = _decode_examples(certificate)
    grammar = normalize_for_gfa(problem.grammar)
    values = _decode_domain_values(
        grammar,
        certificate.get("values"),
        len(examples),
        _INT_VALUE_TYPES[domain_name],
        lambda nonterminal: nonterminal.name,
    )
    failure = _check_inductive(domain, grammar, values, examples)
    if failure is not None:
        return _reject(kind, failure)
    if not _refutes_value(values[grammar.start], problem.spec, examples):
        return _reject(kind, "the start value does not refute the specification")
    return CertcheckResult(
        ok=True,
        kind=kind,
        productions_checked=len(grammar.productions),
        refutation_checked=True,
    )


# ---------------------------------------------------------------------------
# Kind: chc_model
# ---------------------------------------------------------------------------


def _check_chc(
    problem: SyGuSProblem, certificate: Dict[str, object]
) -> CertcheckResult:
    kind = "chc_model"
    examples = _decode_examples(certificate)
    system = encode_gfa_as_horn(problem.grammar, examples, problem.spec)
    stored = certificate.get("clauses")
    rendered = [clause.render() for clause in system.clauses]
    if not isinstance(stored, (list, tuple)) or list(stored) != rendered:
        return _reject(kind, "stored clauses do not match the re-encoded system")
    grammar = normalize_for_gfa(problem.grammar)
    # Clauses are generated one per normalized production (in order), so the
    # per-clause model check *is* the per-production transfer check in the
    # numeric domain, and the query clause check is the refutation.
    domain = create_domain("numeric")
    values = _decode_domain_values(
        grammar,
        certificate.get("model"),
        len(examples),
        ProductValue,
        _predicate_name,
    )
    failure = _check_inductive(domain, grammar, values, examples)
    if failure is not None:
        return _reject(kind, failure)
    if not _refutes_value(values[grammar.start], problem.spec, examples):
        return _reject(kind, "the model does not refute the query clause")
    return CertcheckResult(
        ok=True,
        kind=kind,
        productions_checked=len(grammar.productions),
        refutation_checked=True,
    )


# ---------------------------------------------------------------------------
# Kind: semilinear_fixpoint
# ---------------------------------------------------------------------------


def semilinear_coordinate_intervals(
    value: SemiLinearSet, dimension: int
) -> Tuple[Interval, ...]:
    """The per-coordinate interval hull of a semi-linear set.

    Coordinate ``j`` of ``<u, V>`` ranges over ``u_j + sum l_i * v_i[j]``
    with ``l_i >= 0`` independent, so its hull is ``[u_j, +inf)`` as soon as
    some generator is positive there, ``(-inf, u_j]`` for a negative one,
    and the exact point otherwise; the hull of a union is the join.  Shared
    by the checker's coarse comparison transfer and the builder's coarse
    CLIA interpretation, so both sides compute the identical abstraction.
    """
    result = [Interval.empty()] * dimension
    for linear_set in value.linear_sets:
        for index in range(dimension):
            base = linear_set.offset[index]
            low: Optional[int] = base
            high: Optional[int] = base
            for generator in linear_set.generators:
                component = generator[index]
                if component > 0:
                    high = None
                elif component < 0:
                    low = None
            result[index] = result[index].join(Interval(low, high))
    return tuple(result)


_COMPARISONS = frozenset(
    {"LessThan", "LessEq", "GreaterThan", "GreaterEq", "Equal"}
)

#: Atom builders for the refutation-pruned comparison transfer, keyed by the
#: grammar's comparison symbol names.
_COMPARISON_ATOMS = {
    "LessThan": atom_lt,
    "LessEq": atom_le,
    "GreaterThan": atom_gt,
    "GreaterEq": atom_ge,
    "Equal": atom_eq,
}

#: Cap on refuter calls a single comparison transfer may spend before it
#: falls back to the plain interval-hull result (still sound, just coarser).
_COMPARISON_WORK_LIMIT = 512


def _member_expression(
    linear_set: LinearSet, coordinate: int, prefix: str
) -> LinearExpression:
    """Coordinate ``coordinate`` of a symbolic member of ``linear_set``."""
    return LinearExpression(
        {
            f"{prefix}{index}": generator[coordinate]
            for index, generator in enumerate(linear_set.generators)
            if generator[coordinate]
        },
        linear_set.offset[coordinate],
    )


def semilinear_comparison(
    name: str, left: SemiLinearSet, right: SemiLinearSet, dimension: int
) -> BoolVectorSet:
    """A sound Boolean transfer for ``left <op> right`` over semi-linear sets.

    Starts from the per-coordinate interval-hull comparison and then tries to
    *refute* each surviving Boolean vector jointly: candidate ``b`` stays only
    if, for some pair of linear sets, the system "a member of the left set and
    a member of the right set whose coordinate-wise comparison outcomes are
    exactly ``b``" cannot be proven integer-infeasible by the built-in
    refuter.  Every genuinely realizable ``b`` survives (the refuter is
    one-sided), so the result over-approximates the exact transfer while
    staying strictly below the hull on problems like ``2a+3b+4c == 1``.
    Shared by the checker and the CLIA certificate builder.
    """
    hull = interval_comparison(
        name,
        semilinear_coordinate_intervals(left, dimension),
        semilinear_coordinate_intervals(right, dimension),
        dimension,
    )
    candidates = list(hull)
    pairs = [
        (left_set, right_set)
        for left_set in left.linear_sets
        for right_set in right.linear_sets
    ]
    if not pairs or len(candidates) * len(pairs) > _COMPARISON_WORK_LIMIT:
        return hull
    atom_of = _COMPARISON_ATOMS[name]
    nonnegativity: Dict[Tuple[LinearSet, LinearSet], List[Formula]] = {}
    kept = []
    for candidate in candidates:
        for left_set, right_set in pairs:
            base = nonnegativity.get((left_set, right_set))
            if base is None:
                base = [
                    atom_ge(LinearExpression.variable(f"{prefix}{index}"), 0)
                    for prefix, generators in (
                        ("__cmp_a", left_set.generators),
                        ("__cmp_b", right_set.generators),
                    )
                    for index in range(len(generators))
                ]
                nonnegativity[(left_set, right_set)] = base
            conjuncts = list(base)
            for coordinate in range(dimension):
                atom = atom_of(
                    _member_expression(left_set, coordinate, "__cmp_a"),
                    _member_expression(right_set, coordinate, "__cmp_b"),
                )
                conjuncts.append(atom if candidate[coordinate] else negation(atom))
            if not refute_integer_formula(conjunction(conjuncts)):
                kept.append(candidate)
                break
    return BoolVectorSet(kept, dimension)


def _semilinear_transfer(
    production: Production,
    int_values: Dict[Nonterminal, SemiLinearSet],
    bool_values: Dict[Nonterminal, BoolVectorSet],
    examples: ExampleSet,
) -> object:
    """The (coarse-on-comparisons) semi-linear transfer of one production.

    Integer operators use the exact semiring operations; comparisons use the
    refutation-pruned hull of :func:`semilinear_comparison`, which
    over-approximates the exact Boolean transfer — enough for inductiveness,
    since the builder's claimed Boolean values are a fixpoint under this
    very transfer (it runs the identical function, either in a coarse
    re-solve or to confirm that a coarse solve would end on the exact
    values).
    """
    symbol = production.symbol
    name = symbol.name
    dimension = len(examples)
    if name == "Num":
        return SemiLinearSet.singleton(
            IntVector.constant(int(symbol.payload), dimension)
        )
    if name == "Var":
        return SemiLinearSet.singleton(examples.projection(str(symbol.payload)))
    if name == "NegVar":
        return SemiLinearSet.singleton(
            examples.projection(str(symbol.payload)).scale(-1)
        )
    if name == "BoolConst":
        return BoolVectorSet.singleton(
            BoolVector.constant(bool(symbol.payload), dimension)
        )
    if name == "Pass":
        argument = production.args[0]
        if argument.sort == Sort.BOOL:
            return bool_values[argument]
        return int_values[argument]
    if name == "Plus":
        left, right = (int_values[argument] for argument in production.args)
        return left.extend(right)
    if name == "IfThenElse":
        guard_nt, then_nt, else_nt = production.args
        guards = bool_values[guard_nt]
        then_value = int_values[then_nt]
        else_value = int_values[else_nt]
        result = SemiLinearSet.empty(dimension)
        for guard in guards:
            piece = then_value.project(guard).extend(else_value.project(~guard))
            result = result.combine(piece)
        return result
    if name == "Not":
        return bool_values[production.args[0]].negate()
    if name == "And":
        left, right = (bool_values[argument] for argument in production.args)
        return left.conjoin(right)
    if name == "Or":
        left, right = (bool_values[argument] for argument in production.args)
        return left.disjoin(right)
    if name in _COMPARISONS:
        left, right = (int_values[argument] for argument in production.args)
        if left.is_empty() or right.is_empty():
            return BoolVectorSet.empty(dimension)
        return semilinear_comparison(name, left, right, dimension)
    raise _Malformed(f"unsupported operator {name} in semilinear certificate")


def _verify_subsumption(
    candidate: LinearSet, claimed: SemiLinearSet, justification: object
) -> bool:
    """Check an explicit witness that ``candidate`` ⊆ some claimed set.

    The justification names a container set ``<u, G>`` plus non-negative
    integer coefficients expressing the candidate's offset as ``u + sum
    lambda_i * G_i`` and each candidate generator as ``sum M_ki * G_i``.
    Any member ``offset + sum mu_k * v_k`` then rewrites to ``u + sum_i
    (lambda_i + sum_k mu_k * M_ki) * G_i`` with non-negative integer
    coefficients — a member of the container.  Pure integer arithmetic, no
    solver involved.
    """
    if not isinstance(justification, dict):
        return False
    container_index = justification.get("container")
    if (
        isinstance(container_index, bool)
        or not isinstance(container_index, int)
        or not 0 <= container_index < len(claimed.linear_sets)
    ):
        return False
    container = claimed.linear_sets[container_index]
    lambdas = justification.get("offset_lambdas")
    if not isinstance(lambdas, (list, tuple)) or len(lambdas) != len(
        container.generators
    ):
        return False
    offset = container.offset
    for coefficient, generator in zip(lambdas, container.generators):
        if isinstance(coefficient, bool) or not isinstance(coefficient, int):
            return False
        if coefficient < 0:
            return False
        if coefficient:
            offset = offset + generator.scale(coefficient)
    if offset != candidate.offset:
        return False
    images = justification.get("generator_images")
    if not isinstance(images, (list, tuple)) or len(images) != len(
        candidate.generators
    ):
        return False
    dimension = candidate.dimension
    for row, generator in zip(images, candidate.generators):
        if not isinstance(row, (list, tuple)) or len(row) != len(
            container.generators
        ):
            return False
        image = IntVector.zero(dimension)
        for coefficient, container_generator in zip(row, container.generators):
            if isinstance(coefficient, bool) or not isinstance(coefficient, int):
                return False
            if coefficient < 0:
                return False
            if coefficient:
                image = image + container_generator.scale(coefficient)
        if image != generator:
            return False
    return True


def _refute_semilinear(
    value: SemiLinearSet, spec: Specification, examples: ExampleSet
) -> bool:
    """No member of the claimed start set may satisfy the spec everywhere.

    Each linear set's members are ``offset + sum l_i * g_i`` with fresh
    non-negative integer multiplicities; substituting the symbolic member
    into the instantiated spec per example and refuting the conjunction with
    the built-in integer refuter covers the whole set at once.
    """
    for linear_set in value.linear_sets:
        names = [f"__cert_lam_{index}" for index in range(len(linear_set.generators))]
        parts: List[Formula] = []
        for index, example in enumerate(examples):
            coefficients = {
                name: generator[index]
                for name, generator in zip(names, linear_set.generators)
            }
            member = LinearExpression(coefficients, linear_set.offset[index])
            parts.append(spec.instantiate(example, member))
        for name in names:
            parts.append(atom_ge(LinearExpression.variable(name), 0))
        if not refute_integer_formula(conjunction(parts)):
            return False
    return True


def _check_semilinear(
    problem: SyGuSProblem, certificate: Dict[str, object]
) -> CertcheckResult:
    kind = "semilinear_fixpoint"
    examples = _decode_examples(certificate)
    dimension = len(examples)
    grammar = normalize_for_gfa(problem.grammar)
    if grammar.start.sort == Sort.BOOL:
        return _reject(kind, "Boolean-sorted start nonterminals are unsupported")
    raw_int = certificate.get("values")
    raw_bool = certificate.get("boolean_values") or {}
    if not isinstance(raw_int, dict) or not isinstance(raw_bool, dict):
        return _reject(kind, "values/boolean_values must be objects")
    int_values: Dict[Nonterminal, SemiLinearSet] = {}
    bool_values: Dict[Nonterminal, BoolVectorSet] = {}
    for nonterminal in grammar.nonterminals:
        if nonterminal.sort == Sort.BOOL:
            raw = raw_bool.get(nonterminal.name)
            if raw is None:
                return _reject(kind, f"no Boolean value for {nonterminal.name}")
            value = decode_value(raw, dimension)
            if not isinstance(value, BoolVectorSet):
                return _reject(kind, f"{nonterminal.name} must be a bool_set")
            bool_values[nonterminal] = value
        else:
            raw = raw_int.get(nonterminal.name)
            if raw is None:
                return _reject(kind, f"no claimed value for {nonterminal.name}")
            value = decode_value(raw, dimension)
            if not isinstance(value, SemiLinearSet):
                return _reject(kind, f"{nonterminal.name} must be semilinear")
            int_values[nonterminal] = value
    justifications = certificate.get("justifications") or {}
    if not isinstance(justifications, dict):
        return _reject(kind, "justifications must be an object")
    for index, production in enumerate(grammar.productions):
        computed = _semilinear_transfer(production, int_values, bool_values, examples)
        if production.lhs.sort == Sort.BOOL:
            if not computed.leq(bool_values[production.lhs]):
                return _reject(
                    kind,
                    f"Boolean production {production.lhs.name} <- "
                    f"{production.symbol} transfers above its claimed value",
                )
            continue
        claimed = int_values[production.lhs]
        claimed_sets = set(claimed.linear_sets)
        for position, linear_set in enumerate(computed.linear_sets):
            if linear_set in claimed_sets:
                continue
            justification = justifications.get(f"{index}:{position}")
            if justification is None or not _verify_subsumption(
                linear_set, claimed, justification
            ):
                return _reject(
                    kind,
                    f"production {production.lhs.name} <- {production.symbol}: "
                    f"transferred linear set #{position} is not justified "
                    "inside the claimed value",
                )
    if not _refute_semilinear(int_values[grammar.start], problem.spec, examples):
        return _reject(kind, "the start value does not refute the specification")
    return CertcheckResult(
        ok=True,
        kind=kind,
        productions_checked=len(grammar.productions),
        refutation_checked=True,
    )


# ---------------------------------------------------------------------------
# The built-in integer refuter
# ---------------------------------------------------------------------------


def refute_integer_formula(formula: Formula) -> bool:
    """Try to *prove* a QF-LIA formula unsatisfiable over the integers.

    True means proven UNSAT (sound); False means "could not refute" — the
    procedure gives up rather than answering SAT, so it is one-sided by
    design.  Pipeline: negation-normal form with ``!=`` split into strict
    sides, a size-capped DNF, then per disjunct a gcd divisibility test,
    elimination of unit-coefficient equalities, rational Fourier–Motzkin
    (a rational contradiction implies integer infeasibility), and finally
    integer bound propagation with small-box enumeration (for systems that
    are rationally feasible but have no integer point).
    """
    disjuncts = _dnf(_normalize(formula, True))
    if disjuncts is None:
        return False
    return all(_refute_conjunction(disjunct) for disjunct in disjuncts)


def _normalize(formula: Formula, positive: bool) -> Formula:
    """NNF with atoms restricted to ``<= 0`` and ``== 0`` comparisons."""
    if isinstance(formula, BoolLit):
        return TRUE if formula.value == positive else FALSE
    if isinstance(formula, Atom):
        if not positive:
            return _normalize(formula.negated(), True)
        expression = formula.expression
        comparison = formula.comparison
        if comparison in (Comparison.LE, Comparison.EQ):
            return formula
        if comparison == Comparison.LT:
            return make_atom(expression + 1, Comparison.LE)
        # NE: e != 0  <=>  e <= -1  or  -e <= -1.
        return disjunction(
            [
                make_atom(expression + 1, Comparison.LE),
                make_atom(1 - expression, Comparison.LE),
            ]
        )
    if isinstance(formula, Not):
        return _normalize(formula.operand, not positive)
    if isinstance(formula, And):
        parts = [_normalize(operand, positive) for operand in formula.operands]
        return conjunction(parts) if positive else disjunction(parts)
    if isinstance(formula, Or):
        parts = [_normalize(operand, positive) for operand in formula.operands]
        return disjunction(parts) if positive else conjunction(parts)
    raise _Malformed(f"cannot normalise formula node {type(formula).__name__}")


def _dnf(formula: Formula) -> Optional[List[Tuple[Atom, ...]]]:
    """Disjunctive normal form as atom tuples; None when the cap is hit."""
    if isinstance(formula, BoolLit):
        return [()] if formula.value else []
    if isinstance(formula, Atom):
        return [(formula,)]
    if isinstance(formula, Or):
        result: List[Tuple[Atom, ...]] = []
        for operand in formula.operands:
            sub = _dnf(operand)
            if sub is None:
                return None
            result.extend(sub)
            if len(result) > _DNF_LIMIT:
                return None
        return result
    if isinstance(formula, And):
        result = [()]
        for operand in formula.operands:
            sub = _dnf(operand)
            if sub is None:
                return None
            result = [existing + extra for existing in result for extra in sub]
            if not result:
                return []
            if len(result) > _DNF_LIMIT:
                return None
        return result
    return None


def _refute_conjunction(atoms: Sequence[Atom]) -> bool:
    """Prove one conjunction of ``<= 0`` / ``== 0`` atoms integer-infeasible."""
    equalities: List[LinearExpression] = []
    inequalities: List[LinearExpression] = []
    for atom in atoms:
        if atom.comparison == Comparison.EQ:
            equalities.append(atom.expression)
        else:
            inequalities.append(atom.expression)
    fuel = _ELIMINATION_FUEL
    while equalities:
        if fuel <= 0:
            return False
        fuel -= 1
        expression = equalities.pop()
        items = expression.items
        if not items:
            if expression.constant != 0:
                return True
            continue
        divisor = 0
        for _, coefficient in items:
            divisor = gcd(divisor, abs(coefficient))
        if expression.constant % divisor != 0:
            return True  # gcd divisibility test: no integer solution
        if divisor > 1:
            expression = LinearExpression(
                {name: coefficient // divisor for name, coefficient in items},
                expression.constant // divisor,
            )
            items = expression.items
        unit = next(
            (
                (name, coefficient)
                for name, coefficient in items
                if coefficient in (1, -1)
            ),
            None,
        )
        if unit is None:
            # No unit coefficient left: fall back to the two inequalities.
            inequalities.append(expression)
            inequalities.append(-expression)
            continue
        name, coefficient = unit
        rest = LinearExpression(
            {n: c for n, c in items if n != name}, expression.constant
        )
        replacement = -rest if coefficient == 1 else rest
        assignment = {name: replacement}
        equalities = [e.substitute(assignment) for e in equalities]
        inequalities = [e.substitute(assignment) for e in inequalities]
    if _fourier_motzkin(inequalities):
        return True
    # A rational model may still have no integer points (e.g. 2a+3b+4c == 1
    # with a,b,c >= 0): propagate integer bounds and, if the feasible box is
    # small, enumerate it exhaustively.
    return _box_refute(inequalities)


def _fourier_motzkin(expressions: Sequence[LinearExpression]) -> bool:
    """Rational Fourier–Motzkin on ``expr <= 0`` rows; True = infeasible."""
    rows: List[Tuple[Dict[str, Fraction], Fraction]] = [
        (
            {name: Fraction(coefficient) for name, coefficient in e.items},
            Fraction(e.constant),
        )
        for e in expressions
    ]
    while True:
        pending = []
        for coefficients, constant in rows:
            if coefficients:
                pending.append((coefficients, constant))
            elif constant > 0:
                return True
        rows = pending
        if not rows:
            return False
        counts: Dict[str, Tuple[int, int]] = {}
        for coefficients, _ in rows:
            for name, coefficient in coefficients.items():
                plus, minus = counts.get(name, (0, 0))
                counts[name] = (
                    plus + (coefficient > 0),
                    minus + (coefficient < 0),
                )
        variable = min(counts, key=lambda name: counts[name][0] * counts[name][1])
        positive = []
        negative = []
        remaining = []
        for row in rows:
            coefficient = row[0].get(variable, Fraction(0))
            if coefficient > 0:
                positive.append(row)
            elif coefficient < 0:
                negative.append(row)
            else:
                remaining.append(row)
        combined = remaining
        for upper_coefficients, upper_constant in positive:
            a = upper_coefficients[variable]
            for lower_coefficients, lower_constant in negative:
                b = -lower_coefficients[variable]
                merged: Dict[str, Fraction] = {}
                for name, coefficient in upper_coefficients.items():
                    if name != variable:
                        merged[name] = merged.get(name, Fraction(0)) + b * coefficient
                for name, coefficient in lower_coefficients.items():
                    if name != variable:
                        merged[name] = merged.get(name, Fraction(0)) + a * coefficient
                merged = {
                    name: value for name, value in merged.items() if value != 0
                }
                constant = b * upper_constant + a * lower_constant
                if not merged:
                    if constant > 0:
                        return True
                    continue
                combined.append((merged, constant))
                if len(combined) > _FM_ROW_LIMIT:
                    return False
        rows = combined
        if not rows:
            return False


def _box_refute(expressions: Sequence[LinearExpression]) -> bool:
    """Integer bound propagation + exhaustive small-box search; True = UNSAT.

    Each expression is a row ``sum(c_i * x_i) + k <= 0``.  Bounds on each
    variable are tightened from the rows (using the other variables' current
    bounds), which is sound for every integer solution; an empty interval
    proves infeasibility outright.  When every constrained variable ends up
    with a finite interval and the box is small, the box is enumerated — no
    satisfying point proves infeasibility exactly.  Everything else is a
    give-up (False), never an accept.
    """
    rows: List[Tuple[Dict[str, int], int]] = []
    for expression in expressions:
        coefficients = {
            name: coefficient for name, coefficient in expression.items if coefficient
        }
        if not coefficients:
            if expression.constant > 0:
                return True
            continue
        rows.append((coefficients, expression.constant))
    if not rows:
        return False
    bounds: Dict[str, List[Optional[int]]] = {
        name: [None, None] for coefficients, _ in rows for name in coefficients
    }
    for _ in range(_BOX_PROPAGATION_FUEL):
        changed = False
        for coefficients, constant in rows:
            for name, coefficient in coefficients.items():
                # c*x <= -k - min(rest) over the current bounds of the rest.
                residual = -constant
                for other, other_coefficient in coefficients.items():
                    if other == name:
                        continue
                    low, high = bounds[other]
                    edge = low if other_coefficient > 0 else high
                    if edge is None:
                        residual = None
                        break
                    residual -= other_coefficient * edge
                if residual is None:
                    continue
                low, high = bounds[name]
                if coefficient > 0:
                    ceiling = residual // coefficient
                    if high is None or ceiling < high:
                        bounds[name][1] = ceiling
                        changed = True
                else:
                    floor = -(residual // -coefficient)
                    if low is None or floor > low:
                        bounds[name][0] = floor
                        changed = True
                low, high = bounds[name]
                if low is not None and high is not None and low > high:
                    return True  # empty interval: no integer solution
        if not changed:
            break
    box_size = 1
    for low, high in bounds.values():
        if low is None or high is None:
            return False
        box_size *= high - low + 1
        if box_size > _BOX_ENUM_LIMIT:
            return False
    names = list(bounds)
    for point in product(
        *(range(bounds[name][0], bounds[name][1] + 1) for name in names)
    ):
        values = dict(zip(names, point))
        if all(
            sum(c * values[name] for name, c in coefficients.items()) + constant <= 0
            for coefficients, constant in rows
        ):
            return False  # found an integer point: genuinely satisfiable
    return True  # box exhausted with no satisfying point
