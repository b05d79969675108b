"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper (see the
per-experiment index in ``docs/architecture/engines-api.md``).  The
pytest-benchmark entries measure the dominating computation of each
experiment on a quick, representative subset; ``python -m repro.experiments
<name> --full`` runs the full sweeps.  nope's cells time nayHorn's check (the
paper's ~19x nope/nayHorn gap is cited, not measured).
"""

from __future__ import annotations

import pytest

from repro.suites import benchmarks_by_suite


@pytest.fixture(scope="session")
def suites():
    return benchmarks_by_suite(include_scaling=True)
