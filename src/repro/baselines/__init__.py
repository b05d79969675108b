"""The three solver configurations compared in the evaluation (§8).

* :class:`NaySL` — the exact mode (semi-linear sets + Newton's method);
* :class:`NayHorn` — the approximate mode over the GFA equations (a
  constrained-Horn-clause engine in the paper, an abstract-interpretation
  engine here; see DESIGN.md);
* :class:`Nope` — the prior-work baseline (Hu et al. CAV 2019), which reduces
  unrealizability to program reachability and then to Horn clauses; our
  reimplementation builds that encoding for inspection and checks as
  :class:`NayHorn` does.

Two further *domain engines* instantiate the §4.3 framework with the cheap
pluggable abstractions of :mod:`repro.domains` (see
:mod:`repro.baselines.nay_abstract`):

* :class:`NayInt` — per-example interval boxes, solver-free check;
* :class:`NayFin` — exact finite behavior sets, two-sided below the cap.

All of them implement the :class:`repro.engine.base.UnrealizabilityEngine`
protocol — ``solve(problem) -> CegisResult`` (the full CEGIS loop),
``check(problem, examples) -> CheckResult`` (one unrealizability check over a
fixed example set), and ``configure(**knobs)`` — and register themselves in
:mod:`repro.engine.registry` at import time, so consumers construct them via
``create_engine("naySL")`` rather than importing the classes directly.
"""

from repro.baselines.nay_sl import NaySL
from repro.baselines.nay_horn import NayHorn
from repro.baselines.nope import Nope
from repro.baselines.nay_abstract import NayAbstractDomain, NayFin, NayInt

__all__ = ["NayAbstractDomain", "NayFin", "NayHorn", "NayInt", "NaySL", "Nope"]
