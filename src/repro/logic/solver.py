"""Incremental DPLL(T) satisfiability of quantifier-free LIA formulas.

The solver performs an **iterative, trail-based search** over the Boolean
structure of the formula (in negation normal form): atoms accumulate on a
trail as the search descends, decision points (disjunctions and split
disequalities) are explicit stack frames, and each Boolean leaf hands its
conjunction of trail atoms to the complete integer feasibility core
(:mod:`repro.logic.ilp`).  Because the theory core is complete, exhausting
every branch proves unsatisfiability, so answers are two-valued (plus a
model on SAT).

Three layers of reuse sit on top of the bare search:

* **Theory-lemma learning.**  When the ILP core refutes a conjunction it
  returns a *minimized unsat core*; the search records the core's interned
  atom ids as a blocking lemma.  Adding an atom that completes a known
  lemma refutes the branch immediately, so sibling branches that share the
  conflicting atoms prune without ever reaching the simplex.  Lemmas are
  universal theory facts, so the store is process-wide and survives across
  queries (and across :class:`SolverContext` pops).

* **A cross-query result cache.**  Theory verdicts are memoized in a
  bounded LRU keyed on the *canonical interned conjunction* (the sorted
  atom identities), so the near-identical conjunctions produced by the
  subsumption / CLIA / CEGIS pipelines hit instead of re-solving.  The
  cache pickles by converting entries to structural atom keys and
  re-interning on load, so it can cross a process boundary.
  :mod:`repro.engine.cache` exposes ``clear_cache()`` /
  ``runtime_cache_stats()`` over both structures.

* **:class:`SolverContext`** — push/pop assertion scopes with
  solve-under-assumptions.  Callers assert their fixed constraint skeleton
  once (normalized a single time) and re-check with only the varying atoms
  as assumptions; learned lemmas and cached verdicts persist across pops.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.logic.formulas import (
    And,
    Atom,
    BoolLit,
    Comparison,
    Formula,
    Not,
    Or,
    conjunction,
    make_atom,
)
from repro.logic.ilp import DEFAULT_NODE_LIMIT, solve_conjunction
from repro.logic.rewrites import simplify, to_nnf
from repro.utils.errors import SolverError

Model = Dict[str, int]


class SatStatus(enum.Enum):
    """Two-valued verdicts of the QF-LIA solver."""

    SAT = "sat"
    UNSAT = "unsat"


@dataclass
class SatResult:
    """The outcome of a satisfiability check.

    ``statistics`` carries the per-call work counters: ``theory_queries``,
    ``theory_cache_hits``, ``lemma_hits``, ``lemmas_learned``, ``branches``,
    ``bb_nodes`` (branch-and-bound nodes), ``simplex_pivots``,
    ``propagations`` (conjunctions decided by bound propagation alone) and
    ``core_probes`` (greedy-deletion solves during core minimization).
    """

    status: SatStatus
    model: Optional[Model] = None
    statistics: Dict[str, int] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status == SatStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == SatStatus.UNSAT


#: The per-call (and process-wide) counter names, in reporting order.
STAT_KEYS = (
    "sat_checks",
    "formula_cache_hits",
    "theory_queries",
    "theory_cache_hits",
    "lemma_hits",
    "lemmas_learned",
    "branches",
    "bb_nodes",
    "simplex_pivots",
    "propagations",
    "core_probes",
)


# ---------------------------------------------------------------------------
# Atom interning
# ---------------------------------------------------------------------------
#
# Trail membership, lemma subset tests and cache keys all work over small
# integers instead of structural comparisons.  Ids are never reused (the
# counter survives `clear`), so a cache/lemma clear can race an in-flight
# search without two live atoms ever sharing an id.

_INTERN_LOCK = threading.Lock()
_ATOM_IDS: Dict[Atom, int] = {}
_ATOM_BY_ID: Dict[int, Atom] = {}
_NEXT_ATOM_ID = 0


def _atom_id(atom: Atom) -> int:
    aid = _ATOM_IDS.get(atom)
    if aid is not None:
        return aid
    global _NEXT_ATOM_ID
    with _INTERN_LOCK:
        aid = _ATOM_IDS.get(atom)
        if aid is None:
            aid = _NEXT_ATOM_ID
            _NEXT_ATOM_ID += 1
            _ATOM_IDS[atom] = aid
            _ATOM_BY_ID[aid] = atom
    return aid


# ---------------------------------------------------------------------------
# The learned-lemma store
# ---------------------------------------------------------------------------


class LemmaStore:
    """Blocking clauses learned from theory conflicts.

    A lemma is a frozenset of atom ids whose conjunction is LIA-infeasible —
    a universal fact, so one process-wide store serves every search and
    every :class:`SolverContext`.  Lemmas are indexed by each member atom;
    the search asks :meth:`blocked` when an atom joins the trail, which only
    scans lemmas containing that atom.  A bounded LRU keeps long-lived
    server processes from accumulating every conflict ever seen.
    """

    def __init__(self, max_entries: int = 8192):
        self.max_entries = max_entries
        self.hits = 0
        self.learned = 0
        self._order: "OrderedDict[FrozenSet[int], None]" = OrderedDict()
        self._containing: Dict[int, List[FrozenSet[int]]] = {}
        self._lock = threading.Lock()

    def add(self, ids: FrozenSet[int]) -> None:
        with self._lock:
            if ids in self._order:
                self._order.move_to_end(ids)
                return
            self._order[ids] = None
            self.learned += 1
            for atom in ids:
                self._containing.setdefault(atom, []).append(ids)
            while len(self._order) > self.max_entries:
                evicted, _ = self._order.popitem(last=False)
                for atom in evicted:
                    # Rebuild instead of remove(): lock-free readers may be
                    # mid-iteration over the old list.
                    self._containing[atom] = [
                        lemma for lemma in self._containing[atom] if lemma is not evicted
                    ]

    def blocked(self, trail: Set[int], new_atom: int) -> bool:
        """Does some lemma lie inside ``trail + {new_atom}``?"""
        lemmas = self._containing.get(new_atom)
        if not lemmas:
            return False
        for lemma in lemmas:
            for atom in lemma:
                if atom != new_atom and atom not in trail:
                    break
            else:
                self.hits += 1
                return True
        return False

    def conflicts(self, trail: Set[int]) -> bool:
        """Does some lemma lie entirely inside ``trail``?

        Catches lemmas learned *after* the trail prefix was built (the
        add-time :meth:`blocked` check covers everything else).
        """
        for atom in trail:
            lemmas = self._containing.get(atom)
            if not lemmas:
                continue
            for lemma in lemmas:
                if lemma <= trail:
                    self.hits += 1
                    return True
        return False

    def clear(self) -> None:
        with self._lock:
            self._order.clear()
            self._containing.clear()
            self.hits = 0
            self.learned = 0

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._order),
            "learned": self.learned,
            "hits": self.hits,
        }


# ---------------------------------------------------------------------------
# The cross-query result cache
# ---------------------------------------------------------------------------


class _BoundedLru:
    """A locked, bounded LRU with hit/miss counters (shared cache shape)."""

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._table: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def lookup(self, key):
        with self._lock:
            value = self._table.get(key)
            if value is not None:
                self._table.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return value

    def store(self, key, value) -> None:
        with self._lock:
            self._table[key] = value
            self._table.move_to_end(key)
            while len(self._table) > self.max_entries:
                self._table.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._table.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._table),
            "hits": self.hits,
            "misses": self.misses,
        }


class LogicQueryCache(_BoundedLru):
    """Bounded LRU over theory-conjunction verdicts.

    In-process keys are sorted atom-id tuples (cheap); pickling converts
    every entry to structural atom form and unpickling re-interns, so a
    warmed cache can ship across a process boundary intact.
    """

    def __init__(self, max_entries: int = 65536):
        super().__init__(max_entries)

    # -- pickling (structural form) -------------------------------------------

    def __getstate__(self) -> dict:
        with self._lock:
            entries = [
                (tuple(_ATOM_BY_ID[aid] for aid in key), value)
                for key, value in self._table.items()
            ]
        return {"max_entries": self.max_entries, "entries": entries}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["max_entries"])
        for atoms, value in state["entries"]:
            self._table[tuple(sorted(_atom_id(atom) for atom in atoms))] = value


_LEMMAS = LemmaStore()
_QUERY_CACHE = LogicQueryCache()

#: Formula-level result memo: maps the (normalized) root-formula tuple of a
#: whole search to its verdict and model.  The theory cache below it dedupes
#: *conjunctions*; this one dedupes entire queries — the experiment sweeps
#: re-ask byte-identical property/membership formulas across cells, and a
#: hit skips normalization and the Boolean search outright.  Structurally
#: keyed (formulas hash by value), bounded, cleared with the other stores.
_FORMULA_CACHE = _BoundedLru(max_entries=8192)

_COUNTERS: Dict[str, int] = {key: 0 for key in STAT_KEYS}


def runtime_counters() -> Dict[str, int]:
    """A snapshot of the process-wide solver work counters.

    :func:`repro.api.facade.run_engine` diffs two snapshots around an engine
    run to report per-response solver statistics.
    """
    return dict(_COUNTERS)


def logic_cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss statistics of the query/formula caches and the lemma store."""
    return {
        "query_cache": _QUERY_CACHE.stats(),
        "formula_cache": _FORMULA_CACHE.stats(),
        "lemmas": _LEMMAS.stats(),
    }


def clear_logic_caches() -> None:
    """Reset the query cache, the lemma store, and the atom intern table.

    Wired into :func:`repro.engine.cache.clear_cache` so ``solve_batch``
    workers and the ``serve`` process stay within the bounded-memory
    contract.  The atom-id counter is *not* reset — ids are never reused,
    which keeps a concurrent search consistent across a clear.
    """
    _QUERY_CACHE.clear()
    _FORMULA_CACHE.clear()
    _LEMMAS.clear()
    with _INTERN_LOCK:
        _ATOM_IDS.clear()
        _ATOM_BY_ID.clear()


# ---------------------------------------------------------------------------
# Query recording (used by the perf harness)
# ---------------------------------------------------------------------------

_RECORDERS: List[List[Formula]] = []


@contextmanager
def record_queries(sink: List[Formula]):
    """Capture every top-level formula the solver is asked about.

    The ``logic`` bench suite records the query stream of a real workload
    (e.g. the fig2 exact-Newton subsumption checks) and replays it through
    both this solver and the preserved pre-rewrite one, so speedups compare
    identical query sequences.
    """
    _RECORDERS.append(sink)
    try:
        yield sink
    finally:
        # Remove by identity, not equality: two active captures with equal
        # contents (e.g. both still empty) must not unregister each other.
        for index in range(len(_RECORDERS) - 1, -1, -1):
            if _RECORDERS[index] is sink:
                del _RECORDERS[index]
                break


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def check_sat(
    formula: Formula,
    node_limit: int = DEFAULT_NODE_LIMIT,
    *,
    learn: bool = True,
    cache: bool = True,
) -> SatResult:
    """Decide satisfiability of a QF-LIA formula over the integers.

    ``learn``/``cache`` exist for ablation benchmarks; production callers
    leave them on.
    """
    for sink in _RECORDERS:
        sink.append(formula)
    if cache:
        key = (formula, node_limit)
        hit = _FORMULA_CACHE.lookup(key)
        if hit is not None:
            return _cached_result(hit)
    # NNF only: the trail search consumes BoolLit/And/Or/Atom directly (in
    # any nesting), and smart-constructed formulas are already folded, so
    # the historical extra simplify() pass would just rebuild the tree.
    prepared = to_nnf(formula)
    result = _solve([prepared], node_limit, learn=learn, cache=cache)
    if result.is_sat:
        # The theory core only assigns variables that occur in atoms on the
        # satisfied branch; give every other variable a default value so
        # that ``formula.evaluate(model)`` is total.
        for name in formula.variables():
            result.model.setdefault(name, 0)
    if cache:
        _FORMULA_CACHE.store(
            key,
            (result.status, dict(result.model) if result.model is not None else None),
        )
    return result


def _cached_result(hit) -> SatResult:
    status, model = hit
    statistics = {"sat_checks": 1, "formula_cache_hits": 1}
    _COUNTERS["sat_checks"] += 1
    _COUNTERS["formula_cache_hits"] += 1
    return SatResult(status, dict(model) if model is not None else None, statistics)


def is_satisfiable(formula: Formula) -> bool:
    """Convenience wrapper returning a bare Boolean."""
    return check_sat(formula).is_sat


def is_valid(formula: Formula) -> bool:
    """Validity over the integers: the negation is unsatisfiable."""
    from repro.logic.formulas import negation

    return check_sat(negation(formula)).is_unsat


class SolverContext:
    """An incremental assertion stack over the DPLL(T) core.

    ``assert_formula`` normalizes (simplify + NNF) once at assertion time;
    ``check(assumptions=...)`` conjoins the normalized skeleton with the
    per-query assumption atoms.  ``push``/``pop`` manage assertion scopes;
    learned lemmas and cached theory verdicts live in the process-wide
    stores, so they deliberately survive ``pop`` — a popped assertion only
    retracts the *assertion*, never the theory facts discovered under it.

    Contexts are cheap; hot paths (semi-linear subsumption, CLIA comparison
    abstraction, the CEGIS verifier) keep one per fixed skeleton and swap
    only the varying atoms per query.  ``check`` is read-only and may be
    called from several threads; ``push``/``pop``/``assert_formula`` are
    single-owner operations.
    """

    def __init__(self, node_limit: int = DEFAULT_NODE_LIMIT):
        self.node_limit = node_limit
        self._assertions: List[Formula] = []
        self._frames: List[int] = []
        self._variables: Tuple[str, ...] = ()
        self._variables_stale = False

    # -- assertion management --------------------------------------------------

    def assert_formula(self, formula: Formula) -> None:
        """Add a formula to the current scope (normalized once, here)."""
        prepared = to_nnf(simplify(formula))
        self._assertions.append(prepared)
        if not self._variables_stale:
            merged = set(self._variables)
            merged.update(prepared.variables())
            self._variables = tuple(sorted(merged))

    def push(self) -> None:
        """Open an assertion scope."""
        self._frames.append(len(self._assertions))

    def pop(self) -> None:
        """Close the innermost scope, retracting its assertions."""
        if not self._frames:
            raise SolverError("pop without matching push")
        keep = self._frames.pop()
        del self._assertions[keep:]
        self._variables_stale = True

    @contextmanager
    def scope(self):
        """``with context.scope(): ...`` — push on entry, pop on exit."""
        self.push()
        try:
            yield self
        finally:
            self.pop()

    @property
    def num_assertions(self) -> int:
        return len(self._assertions)

    def variables(self) -> Tuple[str, ...]:
        if self._variables_stale:
            names: Set[str] = set()
            for assertion in self._assertions:
                names.update(assertion.variables())
            self._variables = tuple(sorted(names))
            self._variables_stale = False
        return self._variables

    # -- solving ---------------------------------------------------------------

    def check(self, assumptions: Sequence[Formula] = ()) -> SatResult:
        """Satisfiability of the asserted skeleton plus the assumptions."""
        extra = [to_nnf(formula) for formula in assumptions]
        if _RECORDERS:
            recorded = conjunction(list(self._assertions) + extra)
            for sink in _RECORDERS:
                sink.append(recorded)
        key = (tuple(self._assertions), tuple(extra), self.node_limit)
        hit = _FORMULA_CACHE.lookup(key)
        if hit is not None:
            return _cached_result(hit)
        result = _solve(
            list(self._assertions) + extra, self.node_limit, learn=True, cache=True
        )
        if result.is_sat:
            for name in self.variables():
                result.model.setdefault(name, 0)
            for formula in extra:
                for name in formula.variables():
                    result.model.setdefault(name, 0)
        _FORMULA_CACHE.store(
            key,
            (result.status, dict(result.model) if result.model is not None else None),
        )
        return result


# ---------------------------------------------------------------------------
# The trail-based search
# ---------------------------------------------------------------------------


def _solve(
    roots: List[Formula],
    node_limit: int,
    *,
    learn: bool,
    cache: bool,
) -> SatResult:
    """Iterative DFS over Boolean structure with an explicit decision stack.

    Each decision frame stores the pending agenda as it stood when the
    decision was taken plus the trail length to restore; backtracking pops
    atoms off the trail and resumes with the next alternative.
    """
    statistics = {key: 0 for key in STAT_KEYS}
    statistics["sat_checks"] = 1
    _COUNTERS["sat_checks"] += 1

    trail_atoms: List[Atom] = []
    trail_ids: List[int] = []
    trail_set: Set[int] = set()
    pending: List[Formula] = list(reversed(roots))
    # frame: [saved_pending, trail_length, alternatives, next_alternative]
    decisions: List[list] = []

    def backtrack() -> bool:
        """Resume at the next untried alternative; False when exhausted."""
        nonlocal pending
        while decisions:
            frame = decisions[-1]
            saved_pending, trail_length, alternatives, next_index = frame
            if next_index >= len(alternatives):
                decisions.pop()
                continue
            frame[3] = next_index + 1
            del trail_atoms[trail_length:]
            for aid in trail_ids[trail_length:]:
                trail_set.discard(aid)
            del trail_ids[trail_length:]
            pending = saved_pending[:]
            pending.append(alternatives[next_index])
            return True
        return False

    while True:
        if pending:
            node = pending.pop()
            if isinstance(node, BoolLit):
                if node.value:
                    continue
                if not backtrack():
                    return SatResult(SatStatus.UNSAT, None, statistics)
                continue
            if isinstance(node, Atom):
                if node.comparison == Comparison.NE:
                    # expr != 0  <=>  expr < 0  or  -expr < 0
                    statistics["branches"] += 1
                    _COUNTERS["branches"] += 1
                    alternatives = [
                        make_atom(node.expression, Comparison.LT),
                        make_atom(-node.expression, Comparison.LT),
                    ]
                    decisions.append([pending[:], len(trail_ids), alternatives, 1])
                    pending.append(alternatives[0])
                    continue
                aid = _atom_id(node)
                if aid in trail_set:
                    continue
                if learn and _LEMMAS.blocked(trail_set, aid):
                    statistics["lemma_hits"] += 1
                    _COUNTERS["lemma_hits"] += 1
                    if not backtrack():
                        return SatResult(SatStatus.UNSAT, None, statistics)
                    continue
                trail_atoms.append(node)
                trail_ids.append(aid)
                trail_set.add(aid)
                continue
            if isinstance(node, And):
                pending.extend(reversed(node.operands))
                continue
            if isinstance(node, Or):
                statistics["branches"] += 1
                _COUNTERS["branches"] += 1
                alternatives = list(node.operands)
                decisions.append([pending[:], len(trail_ids), alternatives, 1])
                pending.append(alternatives[0])
                continue
            if isinstance(node, Not):  # pragma: no cover - NNF removes Not nodes
                raise SolverError("solver requires formulas in negation normal form")
            raise SolverError(f"unknown formula node {type(node).__name__}")

        # Boolean leaf: the trail conjunction goes to the theory core.
        model = _theory_leaf(
            trail_atoms, trail_ids, trail_set, node_limit, learn, cache, statistics
        )
        if model is not None:
            return SatResult(SatStatus.SAT, model, statistics)
        if not backtrack():
            return SatResult(SatStatus.UNSAT, None, statistics)


def _theory_leaf(
    trail_atoms: List[Atom],
    trail_ids: List[int],
    trail_set: Set[int],
    node_limit: int,
    learn: bool,
    cache: bool,
    statistics: Dict[str, int],
) -> Optional[Model]:
    """One conjunction-level feasibility query, through lemmas and cache."""
    if learn and _LEMMAS.conflicts(trail_set):
        statistics["lemma_hits"] += 1
        _COUNTERS["lemma_hits"] += 1
        return None

    statistics["theory_queries"] += 1
    _COUNTERS["theory_queries"] += 1
    key = tuple(sorted(trail_ids))

    if cache:
        hit = _QUERY_CACHE.lookup(key)
        if hit is not None:
            statistics["theory_cache_hits"] += 1
            _COUNTERS["theory_cache_hits"] += 1
            kind, payload = hit
            if kind == "sat":
                return dict(payload)
            if learn and payload:
                _LEMMAS.add(frozenset(_atom_id(atom) for atom in payload))
            return None

    outcome = solve_conjunction(trail_atoms, node_limit, minimize_core=learn)
    for local_key, value in (
        ("bb_nodes", outcome.nodes),
        ("simplex_pivots", outcome.pivots),
        ("propagations", outcome.propagations),
        ("core_probes", outcome.core_probes),
    ):
        statistics[local_key] += value
        _COUNTERS[local_key] += value

    if outcome.model is not None:
        if cache:
            _QUERY_CACHE.store(key, ("sat", dict(outcome.model)))
        return dict(outcome.model)

    core = outcome.core if outcome.core is not None else tuple(trail_atoms)
    if cache:
        _QUERY_CACHE.store(key, ("unsat", core))
    if learn and core:
        statistics["lemmas_learned"] += 1
        _COUNTERS["lemmas_learned"] += 1
        _LEMMAS.add(frozenset(_atom_id(atom) for atom in core))
    return None
