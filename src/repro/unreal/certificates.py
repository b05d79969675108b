"""Engine-side builders for unrealizability certificates.

Each builder assembles the JSON payload that
:mod:`repro.analysis.certcheck` knows how to re-verify, then *runs the
checker on it* before handing it back — a certificate that does not verify
is never attached (the verdict itself is unaffected; certificates are
best-effort, verdicts are not).  Builders live on the engine side of the
trust boundary, so they are free to use the solver:

* the semi-linear builders extract explicit non-negative-combination
  subsumption justifications with small ILP queries, which the checker then
  re-verifies with pure integer arithmetic;
* the CLIA builder certifies the fixpoint under a *coarse* comparison
  interpretation (the checker's refutation-pruned interval hulls instead of
  per-vector solver feasibility queries) so that the claimed Boolean values
  contain the checker's solver-free comparison transfer.  It reuses the
  engine's exact fixpoint when the coarse transfer agrees with every
  comparison the exact solve answered, and re-solves otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.analysis.certcheck import (
    CERTIFICATE_FORMAT,
    _semilinear_transfer,
    _verify_subsumption,
    check_certificate,
    encode_value,
    semilinear_comparison,
)
from repro.domains.base import AbstractDomain
from repro.domains.boolvectors import BoolVectorSet
from repro.domains.semilinear import LinearSet, SemiLinearSet
from repro.grammar.alphabet import Sort
from repro.grammar.analysis import productive_nonterminals
from repro.grammar.rtg import Nonterminal
from repro.grammar.transforms import normalize_for_gfa
from repro.horn.clauses import _predicate_name, encode_gfa_as_horn
from repro.logic.formulas import atom_eq, atom_ge
from repro.logic.terms import LinearExpression
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.utils.vectors import IntVector

if TYPE_CHECKING:  # import cycle guard: repro.unreal.clia imports this module
    from repro.unreal.clia import CliaGfaSolution


def _base_payload(kind: str, examples: Optional[ExampleSet]) -> Dict[str, object]:
    payload: Dict[str, object] = {"format": CERTIFICATE_FORMAT, "kind": kind}
    if examples is not None:
        payload["examples"] = [dict(entry) for entry in examples.as_dicts()]
    return payload


def _validated(
    problem: SyGuSProblem, payload: Dict[str, object]
) -> Optional[Dict[str, object]]:
    """Ship a certificate only if the independent checker accepts it."""
    return payload if check_certificate(problem, payload) else None


def build_unproductive_certificate(
    problem: SyGuSProblem,
) -> Optional[Dict[str, object]]:
    return _validated(problem, _base_payload("unproductive", None))


def build_abstract_certificate(
    problem: SyGuSProblem,
    examples: ExampleSet,
    values: Dict[Nonterminal, object],
    abstraction: AbstractDomain,
) -> Optional[Dict[str, object]]:
    """Certificate for an approximate fixpoint (interval/numeric/powerset)."""
    name = abstraction.name
    knobs: Dict[str, int] = {}
    if name == "powerset":
        knobs = {
            "cap": int(getattr(abstraction, "cap", 0)),
            "max_examples": int(getattr(abstraction, "max_examples", 0)),
        }
    elif name not in ("interval", "numeric"):
        return None
    payload = _base_payload("abstract_fixpoint", examples)
    payload["domain"] = name
    payload["domain_knobs"] = knobs
    try:
        payload["values"] = {
            nonterminal.name: encode_value(value)
            for nonterminal, value in values.items()
        }
    except Exception:  # noqa: BLE001 - unencodable value: no certificate
        return None
    return _validated(problem, payload)


def build_chc_certificate(
    problem: SyGuSProblem, abstract_certificate: Optional[Dict[str, object]]
) -> Optional[Dict[str, object]]:
    """Re-shape a numeric ``abstract_fixpoint`` certificate as a CHC model.

    The Horn clauses are generated one per normalized production (in order),
    so the abstract values re-keyed by predicate name *are* the clause-wise
    model; the stored clause renders pin down the system the model is for.
    """
    if not isinstance(abstract_certificate, dict):
        return None
    if abstract_certificate.get("kind") != "abstract_fixpoint":
        return None
    if abstract_certificate.get("domain") != "numeric":
        return None
    examples = ExampleSet.from_dicts(abstract_certificate["examples"])
    system = encode_gfa_as_horn(problem.grammar, examples, problem.spec)
    normalized = normalize_for_gfa(problem.grammar)
    values = abstract_certificate["values"]
    try:
        model = {
            _predicate_name(nonterminal): values[nonterminal.name]
            for nonterminal in normalized.nonterminals
        }
    except KeyError:
        return None
    payload = _base_payload("chc_model", examples)
    payload["clauses"] = [clause.render() for clause in system.clauses]
    payload["model"] = model
    return _validated(problem, payload)


# ---------------------------------------------------------------------------
# Semi-linear certificates (exact engines)
# ---------------------------------------------------------------------------


def _nonneg_combination(
    target: IntVector, generators: Tuple[IntVector, ...]
) -> Optional[List[int]]:
    """Non-negative integers ``l`` with ``sum l_i * generators_i == target``.

    One small ILP per query (engine side — the checker only re-verifies the
    returned coefficients arithmetically).
    """
    if not generators:
        return [] if target.is_zero() else None
    from repro.logic.solver import SolverContext

    context = SolverContext()
    names = [f"_cert_j{index}" for index in range(len(generators))]
    for name in names:
        context.assert_formula(atom_ge(LinearExpression.variable(name), 0))
    for coordinate in range(target.dimension):
        combination = LinearExpression(
            {
                name: generator[coordinate]
                for name, generator in zip(names, generators)
            },
            0,
        )
        context.assert_formula(atom_eq(combination, target[coordinate]))
    result = context.check([])
    if not result.is_sat or result.model is None:
        return None
    return [int(result.model.get(name, 0)) for name in names]


def _find_subsumption(
    candidate: LinearSet, claimed: SemiLinearSet
) -> Optional[Dict[str, object]]:
    """An explicit justification that ``candidate`` ⊆ some claimed set."""
    difference_cache: Dict[IntVector, IntVector] = {}
    for container_index, container in enumerate(claimed.linear_sets):
        offset_delta = difference_cache.get(container.offset)
        if offset_delta is None:
            offset_delta = candidate.offset + container.offset.scale(-1)
            difference_cache[container.offset] = offset_delta
        lambdas = _nonneg_combination(offset_delta, container.generators)
        if lambdas is None:
            continue
        images = []
        for generator in candidate.generators:
            row = _nonneg_combination(generator, container.generators)
            if row is None:
                break
            images.append(row)
        else:
            justification = {
                "container": container_index,
                "offset_lambdas": lambdas,
                "generator_images": images,
            }
            if _verify_subsumption(candidate, claimed, justification):
                return justification
    return None


def _semilinear_payload(
    problem: SyGuSProblem,
    examples: ExampleSet,
    int_values: Dict[Nonterminal, SemiLinearSet],
    bool_values: Dict[Nonterminal, BoolVectorSet],
) -> Optional[Dict[str, object]]:
    """Assemble (and validate) a ``semilinear_fixpoint`` certificate."""
    grammar = normalize_for_gfa(problem.grammar)
    justifications: Dict[str, object] = {}
    try:
        for index, production in enumerate(grammar.productions):
            if production.lhs.sort == Sort.BOOL:
                continue  # the checker re-verifies Boolean legs directly
            computed = _semilinear_transfer(
                production, int_values, bool_values, examples
            )
            claimed = int_values[production.lhs]
            claimed_sets = set(claimed.linear_sets)
            for position, linear_set in enumerate(computed.linear_sets):
                if linear_set in claimed_sets:
                    continue
                justification = _find_subsumption(linear_set, claimed)
                if justification is None:
                    return None
                justifications[f"{index}:{position}"] = justification
        payload = _base_payload("semilinear_fixpoint", examples)
        payload["values"] = {
            nonterminal.name: encode_value(value)
            for nonterminal, value in int_values.items()
            if nonterminal in set(grammar.nonterminals)
        }
        payload["boolean_values"] = {
            nonterminal.name: encode_value(value)
            for nonterminal, value in bool_values.items()
            if nonterminal in set(grammar.nonterminals)
        }
        payload["justifications"] = justifications
    except Exception:  # noqa: BLE001 - any gap means "no certificate"
        return None
    return _validated(problem, payload)


def build_lia_certificate(
    problem: SyGuSProblem,
    examples: ExampleSet,
    values: Dict[Nonterminal, SemiLinearSet],
) -> Optional[Dict[str, object]]:
    """Certificate for the exact LIA engine's Newton fixpoint."""
    if problem.grammar.start not in productive_nonterminals(problem.grammar):
        return build_unproductive_certificate(problem)
    return _semilinear_payload(problem, examples, dict(values), {})


def build_clia_certificate(
    problem: SyGuSProblem,
    examples: ExampleSet,
    exact: Optional[CliaGfaSolution] = None,
    comparisons: Optional[
        Mapping[Tuple[str, SemiLinearSet, SemiLinearSet], BoolVectorSet]
    ] = None,
) -> Optional[Dict[str, object]]:
    """Certificate for the exact CLIA engine.

    The checker recomputes comparisons with the *coarse* refutation-pruned
    hull transfer (:func:`semilinear_comparison`), not with the engine's
    per-vector feasibility queries, so the certified values are those of
    the fixpoint under the coarse transfer — a sound over-approximation of
    the exact abstraction; its unrealizability still refutes the problem.

    ``exact`` is the engine's own solution, passed only when it was solved
    with this builder's settings (stratified, worklist, prune off), and
    ``comparisons`` is its interpretation's record of every comparison it
    answered.  When the coarse transfer returns the recorded result for
    every one of them, a coarse solve would replay the exact one step for
    step and end on the same values, so those values are certified as they
    are.  Otherwise the builder re-solves under the coarse transfer.
    """
    if problem.grammar.start not in productive_nonterminals(problem.grammar):
        return build_unproductive_certificate(problem)
    dimension = len(examples)
    try:
        solution = exact
        if solution is None or comparisons is None or not all(
            semilinear_comparison(name, left, right, dimension) == result
            for (name, left, right), result in comparisons.items()
        ):
            from repro.unreal.clia import solve_clia_gfa

            solution = solve_clia_gfa(
                problem.grammar,
                examples,
                interpretation=_CoarseCliaInterpretation(examples),
            )
    except Exception:  # noqa: BLE001 - coarse re-solve may diverge: no cert
        return None
    return _semilinear_payload(
        problem, examples, dict(solution.integer_values), dict(solution.boolean_values)
    )


def _coarse_interpretation_class():
    """``CliaInterpretation`` with hull-based comparisons, imported lazily.

    :mod:`repro.domains.clia` pulls the solver in at module import, which the
    *checker* must never do; the builder only touches it here.
    """
    from repro.domains.clia import CliaInterpretation

    class CoarseCliaInterpretation(CliaInterpretation):
        """Comparisons via the checker's refutation-pruned hull transfer."""

        def comparison(
            self, name: str, left: SemiLinearSet, right: SemiLinearSet
        ) -> BoolVectorSet:
            if left.is_empty() or right.is_empty():
                return BoolVectorSet.empty(self.dimension)
            return semilinear_comparison(name, left, right, self.dimension)

    return CoarseCliaInterpretation


def _CoarseCliaInterpretation(examples: ExampleSet):
    return _coarse_interpretation_class()(examples)
