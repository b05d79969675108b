"""Memoization of grammar normalization and GFA equation construction.

The experiment sweeps repeat an enormous amount of structural work: the
Fig. 2 series solves the *same* chain grammar once per example count, and
every (tool, benchmark) cell of Tables 1/2 re-normalizes the benchmark's
grammar for each engine.  Normalization (:func:`normalize_for_gfa`) and
equation-system construction (:func:`build_lia_equations`) are pure
functions of immutable inputs, so this module caches them process-wide.

Cache keys (also in ``docs/architecture/engines-api.md``):

* **normalized grammar** — keyed by the grammar *fingerprint*: the tuple
  ``(start, nonterminals, productions)``.  Fingerprints are structural, so
  two independently constructed but identical grammars (e.g. the scaling
  benchmark rebuilt per sweep point) share one cache entry; the grammar's
  display ``name`` is deliberately excluded.
* **LIA equation system** — keyed by ``(grammar fingerprint, examples)``;
  the system's constant semi-linear sets embed the example projections, so
  the example set is part of the key.  :class:`~repro.semantics.examples.ExampleSet`
  is hashable by value.
* **pruned grammar** — keyed by ``(grammar fingerprint, examples, mode)``,
  with ``examples`` ``None`` for the example-independent ``"reduce"`` mode.

Each table is a :class:`~repro.utils.lru.BoundedLru`.

The cached values are immutable (grammars are never mutated after
construction; :class:`~repro.gfa.equations.EquationSystem` is built from
frozen monomials and the Newton solver only derives restricted copies), so
sharing entries across callers is safe.

Each worker process of the experiment runner holds its own cache — hits are
per-process, which is exactly what the runner's task batching exploits by
keeping same-grammar tasks adjacent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.domains.clia import CliaInterpretation
from repro.domains.semilinear import clear_semilinear_caches
from repro.gfa.builder import build_lia_equations
from repro.gfa.equations import EquationSystem
from repro.grammar.automaton import PruneReport, prune_grammar
from repro.grammar.rtg import RegularTreeGrammar
from repro.grammar.transforms import normalize_for_gfa
from repro.logic.solver import clear_logic_caches
from repro.semantics.examples import ExampleSet
from repro.utils.lru import BoundedLru


def grammar_fingerprint(grammar: RegularTreeGrammar) -> Hashable:
    """A structural, hashable identity for a grammar (name excluded)."""
    return (grammar.start, grammar.nonterminals, grammar.productions)


@dataclass
class CacheStats:
    """Hit/miss counters, one pair per cached construction."""

    normalize_hits: int = 0
    normalize_misses: int = 0
    equations_hits: int = 0
    equations_misses: int = 0
    prune_hits: int = 0
    prune_misses: int = 0


class GfaCache:
    """An LRU cache over the pure construction steps of the GFA pipeline.

    ``max_entries`` bounds each table independently; the default comfortably
    covers a full experiment sweep while keeping worst-case memory bounded
    for long-lived server processes.
    """

    def __init__(self, max_entries: int = 256):
        self._normalized = BoundedLru(max_entries)
        self._equations = BoundedLru(max_entries)
        self._pruned = BoundedLru(max_entries)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            normalize_hits=self._normalized.hits,
            normalize_misses=self._normalized.misses,
            equations_hits=self._equations.hits,
            equations_misses=self._equations.misses,
            prune_hits=self._pruned.hits,
            prune_misses=self._pruned.misses,
        )

    # -- the cached constructions ---------------------------------------------

    def normalized(self, grammar: RegularTreeGrammar) -> RegularTreeGrammar:
        """``normalize_for_gfa(grammar)``, memoized by structural fingerprint."""
        key = grammar_fingerprint(grammar)
        value = self._normalized.get(key)
        if value is None:
            value = normalize_for_gfa(grammar)
            self._normalized.put(key, value)
        return value

    def lia_equations(
        self, normalized: RegularTreeGrammar, examples: ExampleSet
    ) -> EquationSystem:
        """``build_lia_equations`` over an already-normalized grammar, memoized.

        The interpretation is derived from the example set here rather than
        accepted as a parameter: the example set is the cache key, so letting
        callers supply their own interpretation would alias different
        interpretations onto one entry.
        """
        key = (grammar_fingerprint(normalized), examples)
        value = self._equations.get(key)
        if value is None:
            value = build_lia_equations(normalized, CliaInterpretation(examples))
            self._equations.put(key, value)
        return value

    def pruned(
        self,
        normalized: RegularTreeGrammar,
        examples: "ExampleSet | None",
        mode: str,
    ) -> "tuple[RegularTreeGrammar, PruneReport]":
        """``prune_grammar`` over an already-normalized grammar, memoized.

        ``"reduce"`` pruning is example-independent, so its entries are keyed
        by the grammar fingerprint alone; ``"oe"`` merges by behavior vectors
        on the example set, which therefore joins the key.
        """
        key = (
            grammar_fingerprint(normalized),
            examples if mode == "oe" else None,
            mode,
        )
        value = self._pruned.get(key)
        if value is None:
            # Engines never surface witness terms; skip their enumeration cost.
            value = prune_grammar(normalized, examples, mode=mode, witnesses=False)
            self._pruned.put(key, value)
        return value

    def clear(self) -> None:
        self._normalized.clear()
        self._equations.clear()
        self._pruned.clear()


#: The process-wide cache used by the solvers in :mod:`repro.unreal`.
_DEFAULT_CACHE = GfaCache()


def get_cache() -> GfaCache:
    return _DEFAULT_CACHE


def clear_cache() -> None:
    """Reset every process-wide memo the solving pipeline accumulates.

    Covers the GFA construction cache, the semi-linear simplification/
    subsumption memos (plus the cached membership solver contexts), and the
    logic core's cross-query result cache and learned-lemma store — the
    complete set a long-lived ``solve_batch`` worker or ``serve`` process
    must be able to drop to stay within the bounded-memory contract.  The
    intern tables (:mod:`repro.utils.intern`) are weak and self-pruning, so
    they are deliberately left alone here.
    """
    _DEFAULT_CACHE.clear()
    clear_semilinear_caches()
    clear_logic_caches()


def cache_stats() -> CacheStats:
    return _DEFAULT_CACHE.stats

