"""The five engines compared in the evaluation (§8).

Each is Alg. 2's CEGIS loop around its own unrealizability check
(:mod:`repro.baselines.engines`):

* :class:`NaySL` — the exact check (semi-linear sets + Newton's method);
* :class:`NayHorn` — the approximate check over the GFA equations (a
  constrained-Horn-clause engine in the paper, an abstract-interpretation
  engine here; see DESIGN.md);
* :class:`Nope` — the prior-work baseline (Hu et al. CAV 2019), which reduces
  unrealizability to program reachability and then to Horn clauses; our
  reimplementation builds that encoding for inspection
  (:mod:`repro.baselines.nope`) and checks as :class:`NayHorn` does;
* :class:`NayInt` — the §4.3 framework over per-example interval boxes, a
  solver-free check;
* :class:`NayFin` — the §4.3 framework over exact finite behavior sets,
  two-sided below the cap.

All of them implement the :class:`repro.engine.base.UnrealizabilityEngine`
protocol — ``solve(problem) -> CegisResult`` (the full CEGIS loop),
``check(problem, examples) -> CheckResult`` (one unrealizability check over a
fixed example set), and ``configure(**knobs)`` — and register themselves in
:mod:`repro.engine.registry` at import time, so consumers construct them via
``create_engine("naySL")`` rather than importing the classes directly.
"""

from repro.baselines.engines import NayEngine, NayFin, NayHorn, NayInt, NaySL, Nope

__all__ = ["NayEngine", "NayFin", "NayHorn", "NayInt", "NaySL", "Nope"]
