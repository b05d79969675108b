"""Memoization of grammar normalization and GFA equation construction.

The experiment sweeps repeat an enormous amount of structural work: the
Fig. 2 series solves the *same* chain grammar once per example count, and
every (tool, benchmark) cell of Tables 1/2 re-normalizes the benchmark's
grammar for each engine.  Normalization (:func:`normalize_for_gfa`) and
equation-system construction (:func:`build_lia_equations`) are pure
functions of immutable inputs, so this module caches them process-wide.

Cache keys (documented in DESIGN.md):

* **normalized grammar** — keyed by the grammar *fingerprint*: the tuple
  ``(start, nonterminals, productions)``.  Fingerprints are structural, so
  two independently constructed but identical grammars (e.g. the scaling
  benchmark rebuilt per sweep point) share one cache entry; the grammar's
  display ``name`` is deliberately excluded.
* **LIA equation system** — keyed by ``(grammar fingerprint, examples)``;
  the system's constant semi-linear sets embed the example projections, so
  the example set is part of the key.  :class:`~repro.semantics.examples.ExampleSet`
  is hashable by value.

Both cached values are immutable (grammars are never mutated after
construction; :class:`~repro.gfa.equations.EquationSystem` is built from
frozen monomials and the Newton solver only derives restricted copies), so
sharing entries across callers is safe.

Each worker process of the experiment runner holds its own cache — hits are
per-process, which is exactly what the runner's task batching exploits by
keeping same-grammar tasks adjacent.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
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
    """An LRU cache over the two pure construction steps of the GFA pipeline.

    ``max_entries`` bounds each table independently; the default comfortably
    covers a full experiment sweep while keeping worst-case memory bounded
    for long-lived server processes.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._normalized: "OrderedDict[Hashable, RegularTreeGrammar]" = OrderedDict()
        self._equations: "OrderedDict[Hashable, EquationSystem]" = OrderedDict()
        self._pruned: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._lock = threading.Lock()

    # -- the cached constructions ---------------------------------------------

    def normalized(self, grammar: RegularTreeGrammar) -> RegularTreeGrammar:
        """``normalize_for_gfa(grammar)``, memoized by structural fingerprint."""
        key = grammar_fingerprint(grammar)
        with self._lock:
            cached = self._get(self._normalized, key)
            if cached is not None:
                self.stats.normalize_hits += 1
                return cached
            self.stats.normalize_misses += 1
        value = normalize_for_gfa(grammar)
        with self._lock:
            self._put(self._normalized, key, value)
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
        with self._lock:
            cached = self._get(self._equations, key)
            if cached is not None:
                self.stats.equations_hits += 1
                return cached
            self.stats.equations_misses += 1
        value = build_lia_equations(normalized, CliaInterpretation(examples))
        with self._lock:
            self._put(self._equations, key, value)
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
        with self._lock:
            cached = self._get(self._pruned, key)
            if cached is not None:
                self.stats.prune_hits += 1
                return cached
            self.stats.prune_misses += 1
        # Engines never surface witness terms; skip their enumeration cost.
        value = prune_grammar(normalized, examples, mode=mode, witnesses=False)
        with self._lock:
            self._put(self._pruned, key, value)
        return value

    # -- bookkeeping -----------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._normalized.clear()
            self._equations.clear()
            self._pruned.clear()
            self.stats = CacheStats()

    @staticmethod
    def _get(table: OrderedDict, key: Hashable):
        value = table.get(key)
        if value is not None:
            table.move_to_end(key)
        return value

    def _put(self, table: OrderedDict, key: Hashable, value) -> None:
        table[key] = value
        table.move_to_end(key)
        while len(table) > self.max_entries:
            table.popitem(last=False)


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

