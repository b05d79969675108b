"""Span tracing installed from outside the program under test.

The benchmark wraps the public functions of each layer (the table in
``layers.json``) without editing the program: :func:`install` replaces the
function at *every* module that binds it, because ``from X import f`` copies
the reference into the importing module.  Each call becomes a span (name,
start, end, parent, op id) kept in memory and written out by :meth:`dump`.

A span's self time is its duration minus the part its child spans cover;
spans nest per thread, so children are sequential and their durations add.
Only the process that installed the wrappers records: a forked solve-fabric
worker inherits the wrappers but calls straight through.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# (id, name, start, end, parent id, op id, self seconds, observed value)
Span = tuple


class Tracer:
    """Records nested spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.sites: Dict[str, int] = {}
        self.op: Optional[int] = None
        self._pid = os.getpid()
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[[Any], float]] = None,
        op_from: Optional[Callable[..., Optional[int]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``observe`` maps the return value to a number kept with the span;
        ``op_from`` reads the op id from the call's arguments, for entries
        (the HTTP handler) that run in a thread the benchmark does not own.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            op = tracer.op
            if stack:
                op = stack[-1][2]
            elif op_from is not None:
                op = op_from(*args)
            # frame: [span id, child seconds, op id]
            frame = [next(tracer._ids), 0.0, op]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                value = observe(result) if observe is not None else None
                tracer.spans.append(
                    (frame[0], name, start, end, parent, op, duration - frame[1], value)
                )

        return traced

    def dump(self, path: str) -> None:
        """One header line (binding sites per span name), then one per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"sites": self.sites}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(path: str) -> Tuple[Dict[str, int], List[Span]]:
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        return header["sites"], [tuple(json.loads(line)) for line in handle if line.strip()]


def _resolve(target: str):
    """``"pkg.module:func"`` or ``"pkg.module:Class.method"`` -> (owner, attr)."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _observer(kind: Optional[str]) -> Optional[Callable[[Any], float]]:
    if kind is None:
        return None
    if kind == "is_valid":
        return lambda result: 1.0 if getattr(result, "is_valid", False) else 0.0
    if kind == "elapsed_seconds":
        return lambda result: float(getattr(result, "elapsed_seconds", 0.0) or 0.0)
    raise ValueError(f"unknown observer {kind!r}")


def _header_op(handler, *_args) -> Optional[int]:
    raw = handler.headers.get("X-Bench-Op") if handler.headers else None
    return int(raw) if raw is not None else None


def install(tracer: Tracer, wrappers: Iterable[Dict[str, Any]]) -> None:
    """Wrap every target at its defining site and every module binding it.

    Call after the program's modules are imported: a module imported later
    reads the (already wrapped) attribute of the defining module.
    """
    for entry in wrappers:
        owner, attribute = _resolve(entry["target"])
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        wrapped = tracer.wrap(
            entry["span"],
            original,
            observe=_observer(entry.get("observe")),
            op_from=_header_op if entry.get("op_from_header") else None,
        )
        setattr(owner, attribute, wrapped)
        sites = 1
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                if module is owner or module is None:
                    continue
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        sites += 1
        tracer.sites[entry["span"]] = tracer.sites.get(entry["span"], 0) + sites


def summarize(spans: Iterable[Span], ops: Optional[set] = None) -> Dict[str, Dict[str, Any]]:
    """Per span name: calls, self seconds, durations, and observed values.

    ``ops`` keeps only spans of the timed phase (spans of set-up work carry
    no op id or one outside the set).
    """
    table: Dict[str, Dict[str, Any]] = {}
    for _sid, name, start, end, _parent, op, self_s, value in spans:
        if ops is not None and op not in ops:
            continue
        row = table.setdefault(name, empty_row())
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += end - start
        row["durations"].append(end - start)
        if value is not None:
            row["observed"] += value
    return table


def empty_row() -> Dict[str, Any]:
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": [], "observed": 0.0}
