"""The versioned JSON wire format of the public api.

Every solving interaction — CLI ``--json`` output, ``repro-nay batch``,
``repro-nay serve``, :meth:`repro.api.Solver.solve_batch` — speaks two
payloads:

* :class:`SolveRequest` — *what* to solve (a benchmark name, a ``.sl`` file
  path, or inline SyGuS-IF text), *how* (engine name or ``"portfolio"``),
  and under which budgets (timeout, CEGIS iterations, example count);
* :class:`SolveResponse` — the verdict plus everything needed to audit it:
  the engine that produced it, timings, iterations, grammar/spec statistics,
  and the witness example set as a machine-checkable certificate (re-running
  any exact engine on those examples must reproduce an ``unrealizable``
  verdict; see :meth:`repro.api.Solver.verify`).

Both carry ``schema_version`` and round-trip through ``to_json()`` /
``from_json()``.  ``from_json`` rejects unknown schema versions and unknown
keys with :class:`~repro.utils.errors.WireFormatError`, so version skew
between a client and a server fails loudly instead of dropping fields.

The payloads are plain dataclasses over JSON-native values (no ``Term``,
``ExampleSet`` or solver objects), which also makes them picklable — the
portfolio racer and the batch pool ship them across process boundaries
verbatim.

Round-trip example:

    >>> request = SolveRequest(benchmark="plane1", engine="staged")
    >>> SolveRequest.from_json(request.to_json()) == request
    True
    >>> SolveResponse.from_json({"schema_version": 1,
    ...                          "verdict": "unknown"}).solver_stats
    {}
    >>> SolveResponse.from_json({"schema_version": 99})
    Traceback (most recent call last):
        ...
    repro.utils.errors.WireFormatError: unsupported response schema_version \
99 (this build speaks versions 1, 2, 3)
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.utils.errors import WireFormatError

#: Version of the wire format.  Bump on any change to the payload shapes
#: below; ``from_json`` accepts every version in
#: :data:`SUPPORTED_SCHEMA_VERSIONS` and rejects everything else.
#:
#: * **2** — added ``SolveResponse.solver_stats`` (the DPLL(T) core's
#:   theory-query / lemma-hit / cache-hit counters).  Purely additive, so
#:   version-1 payloads are still parsed; emitted payloads carry version 2.
#: * **3** — added ``SolveResponse.certificate``, the self-contained
#:   unrealizability proof payload re-verified by
#:   :mod:`repro.analysis.certcheck`.  Also purely additive: version-1/2
#:   payloads still parse (the field defaults to ``None`` for them).
SCHEMA_VERSION = 3

#: Versions ``from_json`` accepts.  Version 1 payloads predate
#: ``solver_stats``, version 2 payloads predate ``certificate``; the missing
#: fields simply take their defaults for them.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3)

#: Verdict strings a response may carry: the four engine verdicts plus
#: ``"error"`` for requests that failed before an engine could run.
RESPONSE_VERDICTS = ("unrealizable", "realizable", "unknown", "timeout", "error")

#: Verdicts that settle the original (un)realizability question.
DEFINITIVE_VERDICTS = ("unrealizable", "realizable")


def json_safe(value: Any) -> Any:
    """Recursively coerce a payload to JSON-native values.

    Dict keys become strings, tuples/sets become lists, enums collapse to
    their ``value``, and anything else non-native falls back to ``str``.
    Engine ``details`` dicts pass through here so a single exotic entry can
    never make a whole response unserializable.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return json_safe(value.value)
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        # key=repr keeps the order deterministic even for mixed-type sets,
        # which plain sorted() would reject.
        return sorted((json_safe(item) for item in value), key=repr)
    return str(value)


def _check_payload(payload: Dict[str, Any], cls: type, kind: str) -> None:
    if not isinstance(payload, dict):
        raise WireFormatError(f"{kind} payload must be a JSON object")
    version = payload.get("schema_version", SCHEMA_VERSION)
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise WireFormatError(
            f"unsupported {kind} schema_version {version!r} (this build speaks "
            f"versions {', '.join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)})"
        )
    known = {spec.name for spec in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise WireFormatError(f"unknown {kind} field(s): {', '.join(unknown)}")


@dataclass
class SolveRequest:
    """One solving request in wire form.

    Exactly one problem source should be set: ``benchmark`` (a suite
    benchmark name, optionally disambiguated by ``suite``), ``path`` (a
    ``.sl`` file), or ``sl`` (inline SyGuS-IF text).  ``engine`` is a
    registry name or ``"portfolio"`` (race ``engines`` — default all
    registered — and return the first definitive verdict).

    Budgets: ``timeout_seconds`` bounds each engine run, ``max_iterations``
    caps the CEGIS loop, and ``max_examples`` caps the example set a check
    runs on.  ``example_count`` instead *resizes* the example set to an
    exact size via :meth:`~repro.semantics.examples.ExampleSet.resized`.
    """

    schema_version: int = SCHEMA_VERSION
    kind: str = "auto"  # "auto" | "solve" | "check"
    engine: str = "naySL"
    engines: Optional[List[str]] = None  # portfolio pool; None = all registered
    benchmark: Optional[str] = None
    suite: Optional[str] = None
    path: Optional[str] = None
    sl: Optional[str] = None
    examples: Optional[List[Dict[str, int]]] = None
    example_count: Optional[int] = None
    timeout_seconds: Optional[float] = None
    max_iterations: Optional[int] = None
    max_examples: Optional[int] = None
    seed: int = 0
    tags: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("auto", "solve", "check"):
            raise WireFormatError(f"unknown request kind {self.kind!r}")

    def to_json(self) -> Dict[str, Any]:
        """The request as a JSON-native dict (inverse of :meth:`from_json`)."""
        return json_safe(asdict(self))

    @staticmethod
    def from_json(payload: Dict[str, Any]) -> "SolveRequest":
        """Parse a request payload, validating version and field names."""
        _check_payload(payload, SolveRequest, "request")
        return SolveRequest(**payload)


@dataclass
class SolveResponse:
    """One solving outcome in wire form.

    ``witness_examples`` names an example set over which the problem is
    already unrealizable for an ``unrealizable`` verdict, so any exact
    engine re-run on exactly those examples must agree; ``certificate`` is
    the stronger, self-contained proof payload (schema version 3) that
    :mod:`repro.analysis.certcheck` re-verifies without re-running any
    engine or solver.  For a ``realizable`` verdict ``solution`` carries the
    witness term as an s-expression.  ``engines_raced`` is non-empty for
    portfolio responses and names every engine that took part; ``engine`` is
    the winner.
    """

    verdict: str = "unknown"
    engine: str = ""
    schema_version: int = SCHEMA_VERSION
    kind: str = "solve"  # "solve" | "check"
    problem: str = ""
    suite: Optional[str] = None
    elapsed_seconds: float = 0.0
    iterations: int = 0
    num_examples: int = 0
    witness_examples: List[Dict[str, int]] = field(default_factory=list)
    solution: Optional[str] = None
    grammar: Dict[str, int] = field(default_factory=dict)
    spec: Optional[str] = None
    #: Work done for this response (schema version 2): the logic core's
    #: theory query counts, lemma hits, logic-cache hits, simplex pivots,
    #: etc., plus the ``grammar_*``/``powerset_*``/enumerator entries the
    #: layers report — what the engine run recorded in its own
    #: :func:`repro.utils.stats.recording` scope, so exact per request.
    #: Empty for version-1 payloads and error responses.
    #: The solve fabric (:mod:`repro.engine.supervisor`) adds its resilience
    #: counters here *additively* (no schema bump, absent on clean runs):
    #: ``retries`` / ``workers_replaced`` / ``breaker_trips`` when a request
    #: survived worker failures, and ``faults_injected`` when the
    #: fault-injection harness (:mod:`repro.testing.faults`) was armed.
    solver_stats: Dict[str, int] = field(default_factory=dict)
    #: Self-contained unrealizability proof (schema version 3): the payload
    #: :func:`repro.analysis.certcheck.check_certificate` accepts.  ``None``
    #: for non-``unrealizable`` verdicts, version-1/2 payloads, and the rare
    #: runs where an engine could not assemble a checkable proof
    #: (certificates are best-effort; verdicts are not).
    certificate: Optional[Dict[str, Any]] = None
    details: Dict[str, Any] = field(default_factory=dict)
    engines_raced: List[str] = field(default_factory=list)
    error: Optional[str] = None
    tags: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in RESPONSE_VERDICTS:
            raise WireFormatError(f"unknown response verdict {self.verdict!r}")

    @property
    def is_definitive(self) -> bool:
        """Did this response settle the question (either way)?"""
        return self.verdict in DEFINITIVE_VERDICTS

    @property
    def is_unrealizable(self) -> bool:
        return self.verdict == "unrealizable"

    def to_json(self) -> Dict[str, Any]:
        """The response as a JSON-native dict (inverse of :meth:`from_json`)."""
        return json_safe(asdict(self))

    def to_json_text(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(payload: Dict[str, Any]) -> "SolveResponse":
        """Parse a response payload, validating version and field names."""
        _check_payload(payload, SolveResponse, "response")
        return SolveResponse(**payload)

    @staticmethod
    def from_json_text(text: str) -> "SolveResponse":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise WireFormatError(f"response payload is not JSON: {error}") from None
        return SolveResponse.from_json(payload)


def grammar_stats(problem: Any) -> Dict[str, int]:
    """The grammar/spec statistics every response reports."""
    return {
        "num_nonterminals": problem.grammar.num_nonterminals,
        "num_productions": problem.grammar.num_productions,
        "num_variables": len(problem.variables),
    }


def error_response(
    message: str,
    request: Optional[SolveRequest] = None,
    engine: str = "",
) -> SolveResponse:
    """A well-formed wire response for a request that could not be solved."""
    return SolveResponse(
        verdict="error",
        engine=engine or (request.engine if request else ""),
        kind="solve",
        problem=(request.benchmark or request.path or "") if request else "",
        suite=request.suite if request else None,
        error=message,
        tags=dict(request.tags) if request else {},
    )
