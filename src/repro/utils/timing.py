"""The deadline stopwatch used by the CEGIS loop and the enumerators."""

from __future__ import annotations

import time
from typing import Optional


class Stopwatch:
    """A simple monotonic stopwatch with an optional deadline.

    The CEGIS loop (Alg. 2) and the experiment harness give each solver call a
    per-call timeout; a :class:`Stopwatch` instance is threaded through the
    solvers so they can abandon work when the deadline passes.
    """

    def __init__(self, timeout_seconds: Optional[float] = None):
        self._start = time.monotonic()
        self._timeout = timeout_seconds

    def elapsed(self) -> float:
        """Seconds elapsed since the stopwatch was created."""
        return time.monotonic() - self._start

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline, or None if no deadline is set."""
        if self._timeout is None:
            return None
        return self._timeout - self.elapsed()

    def expired(self) -> bool:
        """True when a deadline is configured and has passed."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0
