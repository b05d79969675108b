"""A self-contained quantifier-free linear integer arithmetic (QF-LIA) solver.

The paper's implementation delegates all satisfiability questions to CVC4 and
Z3.  Neither is available in this environment, so this package provides an
exact, from-scratch substitute that supports the exact query shapes the
unrealizability pipeline needs:

* satisfiability of quantifier-free LIA formulas (arbitrary Boolean structure
  over linear atoms, all variables implicitly existentially quantified over
  the integers, with optional non-negativity side conditions for the
  semi-linear-set parameters ``lambda``);
* model extraction, used by the CEGIS verifier to produce counterexamples.

The solver is organised as an incremental DPLL(T) layered design:

``terms``        linear expressions over named integer variables
``formulas``     Boolean formulas over linear atoms, with smart constructors
``rewrites``     NNF conversion, constant folding, substitution
``simplex``      exact rational feasibility (integer-scaled rows, incremental
                 constraint addition for warm-started branch-and-bound)
``diophantine``  GCD tests, integer equality elimination, gcd tightening
``ilp``          integer feasibility: bound propagation, then warm-started
                 branch-and-bound; minimized unsat cores on refutation
``solver``       trail-based Boolean search with theory-lemma learning, a
                 cross-query result cache, and push/pop ``SolverContext``
``reference``    the pre-incremental stack, kept as a differential oracle
                 and the perf-suite baseline
"""

from repro.logic.terms import LinearExpression
from repro.logic.formulas import (
    Formula,
    Atom,
    BoolLit,
    And,
    Or,
    Not,
    TRUE,
    FALSE,
    conjunction,
    disjunction,
    negation,
    atom_le,
    atom_lt,
    atom_ge,
    atom_gt,
    atom_eq,
    atom_ne,
)
from repro.logic.solver import (
    Model,
    SatResult,
    SatStatus,
    SolverContext,
    check_sat,
    clear_logic_caches,
    is_satisfiable,
    is_valid,
    logic_cache_stats,
    record_queries,
)

__all__ = [
    "LinearExpression",
    "Formula",
    "Atom",
    "BoolLit",
    "And",
    "Or",
    "Not",
    "TRUE",
    "FALSE",
    "conjunction",
    "disjunction",
    "negation",
    "atom_le",
    "atom_lt",
    "atom_ge",
    "atom_gt",
    "atom_eq",
    "atom_ne",
    "SatResult",
    "SatStatus",
    "SolverContext",
    "check_sat",
    "clear_logic_caches",
    "is_satisfiable",
    "is_valid",
    "logic_cache_stats",
    "record_queries",
    "Model",
]
