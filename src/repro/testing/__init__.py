"""Test-only instrumentation shipped with the library.

:mod:`repro.testing.faults` is the fault-injection layer the fabric and
service tests drive to prove every engine failure mode ends in a
well-formed :class:`~repro.api.wire.SolveResponse`.  Nothing in
here runs unless explicitly armed (``REPRO_NAY_FAULTS`` or a request's
``tags["faults"]``), so production requests pay zero overhead.
"""

from repro.testing.faults import (
    FAULT_KINDS,
    FaultSpec,
    InjectedFaultError,
    corrupt_response,
    faults_armed,
    inject_faults,
    parse_faults,
    reset_fault_state,
)

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "InjectedFaultError",
    "corrupt_response",
    "faults_armed",
    "inject_faults",
    "parse_faults",
    "reset_fault_state",
]
