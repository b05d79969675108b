"""Columnar batch operations over example-indexed data.

The paper's semantics is vector-shaped: a term evaluates to a vector in
``Z^|E|`` over the example set ``E`` (Def. 3.4, §6.1), and every abstract
transfer of the GFA recipe (§4.3) maps whole example vectors to whole
example vectors.  Historically those vectors were processed one Python int
at a time; at production example counts (thousands of examples per request)
the per-element interpreter overhead dominates every solve.

This module is the batching seam.  A *column* is one backend-owned array of
per-example values (ints, bools, or interval bounds); a :class:`ColumnOps`
backend implements whole-column operations in a single sweep.  Two
interchangeable backends exist:

* :data:`PYTHON_OPS` — pure Python: columns are plain tuples and each
  operation is one hoisted ``map``/comprehension loop (no per-component
  object dispatch, no ``zip`` of lazily re-created pairs);
* :data:`NUMPY_OPS` — the optional accelerator: columns are ``numpy``
  arrays (``int64`` for ints, ``bool`` for masks, ``float64`` with ``±inf``
  for interval bounds).  numpy is a **soft dependency**: it is used
  whenever it can be imported; otherwise the pure-Python backend is
  selected at import time and nothing else changes.  The backends are
  bit-identical, so no setting chooses between them; the differential
  tests and the perf harness switch explicitly with :func:`use_backend`.

Exactness contract: the numpy backend must return bit-identical results to
the pure-Python backend.  Integer columns are guarded at construction —
values outside the exactly-representable ``int64`` range raise
:class:`ColumnOverflowError` and the caller falls back to
:data:`PYTHON_OPS` (Python ints are arbitrary precision, so the fallback is
always exact); interval-bound columns use ``float64`` and therefore guard
at ``2^53``, beyond which integers stop being exactly representable.

Callers hold *canonical* data as tuples (hash-consing and pickling key on
tuples, see :mod:`repro.utils.vectors`) and cache the backend column
alongside, keyed on the ops object, so switching backends mid-process (the
differential tests and the perf harness run both) never mixes
representations.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import add as _add, neg as _neg, sub as _sub
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.utils.errors import ReproError

#: Interval bounds are held as ``value | ±inf``; these are the two infinities.
NEG_INF = float("-inf")
POS_INF = float("inf")

#: One interval bound: an exact integer, or an infinity marker.
Bound = Union[int, float]

#: Largest magnitude exactly representable in a float64 bound column.
_BOUND_LIMIT = 2 ** 53

#: Largest magnitude accepted by the numpy int64 integer columns.  One bit
#: of headroom below int64 keeps a single add/sub/scale step from wrapping.
_INT64_LIMIT = 2 ** 62


class ColumnOverflowError(ReproError):
    """A value does not fit the backend's exact numeric range."""


class ColumnOps:
    """One batch-operation backend.

    Columns are opaque backend-owned values: build them from canonical
    tuples with :meth:`int_column` / :meth:`bool_column` /
    :meth:`bound_column`, convert back with the ``*_tuple`` methods.  All
    operations are whole-column sweeps; backends never see scalars except
    through ``scale``.
    """

    name: str = "abstract"

    # -- construction / canonicalization ------------------------------------

    def int_column(self, values: Sequence[int]):
        raise NotImplementedError

    def bool_column(self, values: Sequence[bool]):
        raise NotImplementedError

    def bound_column(self, values: Sequence[Bound]):
        raise NotImplementedError

    def int_tuple(self, column) -> Tuple[int, ...]:
        raise NotImplementedError

    def bool_tuple(self, column) -> Tuple[bool, ...]:
        raise NotImplementedError

    def bound_tuple(self, column) -> Tuple[Bound, ...]:
        raise NotImplementedError


class PythonColumnOps(ColumnOps):
    """The dependency-free backend: columns are plain tuples.

    Every operation is a single ``map``/comprehension pass — the loop is
    hoisted here once instead of living (as object dispatch over dataclass
    cells) at every call site.
    """

    name = "python"
    available = True

    # -- construction --------------------------------------------------------

    def int_column(self, values: Sequence[int]):
        return values if isinstance(values, tuple) else tuple(values)

    def bool_column(self, values: Sequence[bool]):
        return values if isinstance(values, tuple) else tuple(values)

    def bound_column(self, values: Sequence[Bound]):
        return values if isinstance(values, tuple) else tuple(values)

    def int_tuple(self, column) -> Tuple[int, ...]:
        return column

    def bool_tuple(self, column) -> Tuple[bool, ...]:
        return column

    def bound_tuple(self, column) -> Tuple[Bound, ...]:
        return column

    # -- integer columns -----------------------------------------------------

    def add(self, left, right):
        return tuple(map(_add, left, right))

    def sub(self, left, right):
        return tuple(map(_sub, left, right))

    def neg(self, column):
        return tuple(map(_neg, column))

    def scale(self, column, factor: int):
        return tuple(value * factor for value in column)

    def mask(self, column, keep):
        return tuple(map(lambda value, bit: value if bit else 0, column, keep))

    def lt(self, left, right):
        return tuple(map(lambda a, b: a < b, left, right))

    def eq(self, left, right):
        return tuple(map(lambda a, b: a == b, left, right))

    def is_zero(self, column) -> bool:
        return not any(column)

    # -- boolean columns -----------------------------------------------------

    def not_(self, column):
        return tuple(map(lambda bit: not bit, column))

    def and_(self, left, right):
        return tuple(map(lambda a, b: a and b, left, right))

    def or_(self, left, right):
        return tuple(map(lambda a, b: a or b, left, right))

    def all_(self, column) -> bool:
        return all(column)

    def any_(self, column) -> bool:
        return any(column)

    def pack_bits(self, column) -> int:
        bits = 0
        for index, bit in enumerate(column):
            if bit:
                bits |= 1 << index
        return bits

    def select(self, keep, then_column, else_column):
        """Component-wise choice: ``then`` where ``keep`` is true."""
        return tuple(
            map(lambda bit, a, b: a if bit else b, keep, then_column, else_column)
        )

    # -- interval-bound columns ----------------------------------------------
    #
    # The struct-of-arrays interval encoding (see domains/interval.py): one
    # column of lower bounds and one of upper bounds, unbounded ends encoded
    # as ±inf, an empty component as ``lo > hi``.  Python ints stay exact.

    def iv_join(self, alo, ahi, blo, bhi):
        return tuple(map(min, alo, blo)), tuple(map(max, ahi, bhi))

    def iv_widen(self, alo, ahi, blo, bhi):
        """Standard interval widening, empties passed through (see Interval)."""
        lo = tuple(
            map(
                lambda al, ah, bl, bh: (
                    bl if al > ah else (al if bh < bl or bl >= al else NEG_INF)
                ),
                alo, ahi, blo, bhi,
            )
        )
        hi = tuple(
            map(
                lambda al, ah, bl, bh: (
                    bh if al > ah else (ah if bh < bl or bh <= ah else POS_INF)
                ),
                alo, ahi, blo, bhi,
            )
        )
        return lo, hi

    def iv_add(self, alo, ahi, blo, bhi):
        lo = tuple(
            map(
                lambda al, ah, bl, bh: POS_INF if al > ah or bl > bh else al + bl,
                alo, ahi, blo, bhi,
            )
        )
        hi = tuple(
            map(
                lambda al, ah, bl, bh: NEG_INF if al > ah or bl > bh else ah + bh,
                alo, ahi, blo, bhi,
            )
        )
        return lo, hi

    def iv_leq(self, alo, ahi, blo, bhi) -> bool:
        return all(
            map(
                lambda al, ah, bl, bh: al > ah or (bl <= bh and bl <= al and ah <= bh),
                alo, ahi, blo, bhi,
            )
        )

    def iv_is_empty(self, lo, hi):
        """Per-component emptiness mask."""
        return tuple(map(lambda a, b: a > b, lo, hi))

    def iv_any_empty(self, lo, hi) -> bool:
        return any(map(lambda a, b: a > b, lo, hi))

    def iv_contains(self, lo, hi, values) -> bool:
        return all(map(lambda a, b, v: a <= v <= b, lo, hi, values))

    def iv_compare_masks(self, name: str, alo, ahi, blo, bhi):
        """``(can_be_true, can_be_false)`` masks of ``left <cmp> right``.

        Interval truth-value analysis over non-empty components (callers
        short-circuit empty boxes), one sweep per mask.
        """
        if name == "LessThan":
            can_true = tuple(map(lambda al, bh: al < bh, alo, bhi))
            can_false = tuple(map(lambda ah, bl: ah >= bl, ahi, blo))
        elif name == "LessEq":
            can_true = tuple(map(lambda al, bh: al <= bh, alo, bhi))
            can_false = tuple(map(lambda ah, bl: ah > bl, ahi, blo))
        elif name == "GreaterThan":
            can_true = tuple(map(lambda ah, bl: ah > bl, ahi, blo))
            can_false = tuple(map(lambda al, bh: al <= bh, alo, bhi))
        elif name == "GreaterEq":
            can_true = tuple(map(lambda ah, bl: ah >= bl, ahi, blo))
            can_false = tuple(map(lambda al, bh: al < bh, alo, bhi))
        elif name == "Equal":
            can_true = tuple(
                map(lambda al, ah, bl, bh: al <= bh and bl <= ah, alo, ahi, blo, bhi)
            )
            can_false = tuple(
                map(
                    lambda al, ah, bl, bh: not (al == ah == bl == bh),
                    alo, ahi, blo, bhi,
                )
            )
        else:
            raise ReproError(f"unknown comparison {name}")
        return can_true, can_false

    def iv_select(self, keep, alo, ahi, blo, bhi):
        return (
            tuple(map(lambda bit, a, b: a if bit else b, keep, alo, blo)),
            tuple(map(lambda bit, a, b: a if bit else b, keep, ahi, bhi)),
        )

    # -- row batches (powerset transfers) ------------------------------------
    #
    # ``rows`` are sequences of equal-length int tuples: the packed behavior
    # vectors of one abstract value.  All pairwise transfers dedupe before
    # the caller re-interns, so interning cost is paid per *distinct* result.

    def pairwise_sums(self, rows_a, rows_b) -> Set[Tuple[int, ...]]:
        return {tuple(map(_add, a, b)) for a in rows_a for b in rows_b}

    def pairwise_compare(self, name: str, rows_a, rows_b) -> Set[Tuple[bool, ...]]:
        comparator = _PY_COMPARATORS.get(name)
        if comparator is None:
            raise ReproError(f"unknown comparison {name}")
        return {tuple(map(comparator, a, b)) for a in rows_a for b in rows_b}

    def pairwise_select(self, keep, rows_then, rows_else) -> Set[Tuple[int, ...]]:
        """All ``then/else`` splices under one fixed guard mask."""
        chooser = lambda bit, a, b: a if bit else b  # noqa: E731
        return {
            tuple(map(chooser, keep, then_row, else_row))
            for then_row in rows_then
            for else_row in rows_else
        }


_PY_COMPARATORS = {
    "LessThan": lambda a, b: a < b,
    "LessEq": lambda a, b: a <= b,
    "GreaterThan": lambda a, b: a > b,
    "GreaterEq": lambda a, b: a >= b,
    "Equal": lambda a, b: a == b,
}


def _build_numpy_ops() -> Optional[ColumnOps]:
    try:
        import numpy as np
    except ImportError:
        return None

    class NumpyColumnOps(ColumnOps):
        """The accelerator backend: one ufunc sweep per operation.

        Integer columns are ``int64`` with a construction-time range guard
        (:class:`ColumnOverflowError` routes the caller to the exact
        pure-Python backend); interval bounds are ``float64`` (±inf for
        unbounded ends) guarded at ``2^53`` so every finite bound remains
        an exactly-represented integer.
        """

        name = "numpy"
        available = True

        # -- construction ----------------------------------------------------

        def int_column(self, values: Sequence[int]):
            try:
                column = np.asarray(values, dtype=np.int64)
            except (OverflowError, ValueError) as error:
                raise ColumnOverflowError(str(error)) from None
            if column.size and np.abs(column).max() > _INT64_LIMIT:
                raise ColumnOverflowError("value beyond the int64 headroom")
            return column

        def bool_column(self, values: Sequence[bool]):
            return np.asarray(values, dtype=bool)

        def bound_column(self, values: Sequence[Bound]):
            try:
                column = np.asarray(values, dtype=np.float64)
            except (OverflowError, ValueError) as error:
                raise ColumnOverflowError(str(error)) from None
            finite = column[np.isfinite(column)]
            if finite.size and np.abs(finite).max() >= _BOUND_LIMIT:
                raise ColumnOverflowError("interval bound beyond 2^53")
            return column

        def int_tuple(self, column) -> Tuple[int, ...]:
            return tuple(column.tolist())

        def bool_tuple(self, column) -> Tuple[bool, ...]:
            return tuple(column.tolist())

        def bound_tuple(self, column) -> Tuple[Bound, ...]:
            # tolist() yields floats; finite bounds canonicalize back to int
            # so tuples stay interchangeable with the python backend's.
            return tuple(
                value if value in (NEG_INF, POS_INF) else int(value)
                for value in column.tolist()
            )

        # -- integer columns -------------------------------------------------

        def add(self, left, right):
            return left + right

        def sub(self, left, right):
            return left - right

        def neg(self, column):
            return -column

        def scale(self, column, factor: int):
            if abs(factor) > _INT64_LIMIT:
                raise ColumnOverflowError("scale factor beyond the int64 headroom")
            return column * np.int64(factor)

        def mask(self, column, keep):
            return np.where(keep, column, 0)

        def lt(self, left, right):
            return left < right

        def eq(self, left, right):
            return left == right

        def is_zero(self, column) -> bool:
            return not column.any()

        # -- boolean columns -------------------------------------------------

        def not_(self, column):
            return ~column

        def and_(self, left, right):
            return left & right

        def or_(self, left, right):
            return left | right

        def all_(self, column) -> bool:
            return bool(column.all())

        def any_(self, column) -> bool:
            return bool(column.any())

        def pack_bits(self, column) -> int:
            bits = 0
            for index in np.flatnonzero(column).tolist():
                bits |= 1 << index
            return bits

        def select(self, keep, then_column, else_column):
            return np.where(keep, then_column, else_column)

        # -- interval-bound columns --------------------------------------------

        def iv_join(self, alo, ahi, blo, bhi):
            return np.minimum(alo, blo), np.maximum(ahi, bhi)

        def iv_widen(self, alo, ahi, blo, bhi):
            a_empty = alo > ahi
            b_empty = blo > bhi
            lo = np.where(blo < alo, NEG_INF, alo)
            hi = np.where(bhi > ahi, POS_INF, ahi)
            lo = np.where(a_empty, blo, np.where(b_empty, alo, lo))
            hi = np.where(a_empty, bhi, np.where(b_empty, ahi, hi))
            return lo, hi

        def iv_add(self, alo, ahi, blo, bhi):
            empty = (alo > ahi) | (blo > bhi)
            with np.errstate(invalid="ignore"):
                lo = np.where(empty, POS_INF, alo + blo)
                hi = np.where(empty, NEG_INF, ahi + bhi)
            return lo, hi

        def iv_leq(self, alo, ahi, blo, bhi) -> bool:
            a_empty = alo > ahi
            b_empty = blo > bhi
            ok = a_empty | (~b_empty & (blo <= alo) & (ahi <= bhi))
            return bool(ok.all())

        def iv_is_empty(self, lo, hi):
            return lo > hi

        def iv_any_empty(self, lo, hi) -> bool:
            return bool((lo > hi).any())

        def iv_contains(self, lo, hi, values) -> bool:
            return bool(((lo <= values) & (values <= hi)).all())

        def iv_compare_masks(self, name: str, alo, ahi, blo, bhi):
            if name == "LessThan":
                return alo < bhi, ahi >= blo
            if name == "LessEq":
                return alo <= bhi, ahi > blo
            if name == "GreaterThan":
                return ahi > blo, alo <= bhi
            if name == "GreaterEq":
                return ahi >= blo, alo < bhi
            if name == "Equal":
                can_true = (alo <= bhi) & (blo <= ahi)
                can_false = ~((alo == ahi) & (blo == bhi) & (alo == blo))
                return can_true, can_false
            raise ReproError(f"unknown comparison {name}")

        def iv_select(self, keep, alo, ahi, blo, bhi):
            return np.where(keep, alo, blo), np.where(keep, ahi, bhi)

        # -- row batches -------------------------------------------------------

        def _matrix(self, rows):
            try:
                matrix = np.asarray(rows, dtype=np.int64)
            except (OverflowError, ValueError) as error:
                raise ColumnOverflowError(str(error)) from None
            if matrix.size and np.abs(matrix).max() > _INT64_LIMIT:
                raise ColumnOverflowError("row value beyond the int64 headroom")
            return matrix

        @staticmethod
        def _row_set(matrix) -> Set[Tuple[int, ...]]:
            # A hash-set of tuples dedupes faster than np.unique(axis=0),
            # which routes through a structured-dtype lexicographic sort.
            flat = matrix.reshape(-1, matrix.shape[-1])
            return {tuple(row) for row in flat.tolist()}

        def pairwise_sums(self, rows_a, rows_b) -> Set[Tuple[int, ...]]:
            left = self._matrix(list(rows_a))
            right = self._matrix(list(rows_b))
            sums = left[:, None, :] + right[None, :, :]
            return self._row_set(sums)

        def pairwise_compare(
            self, name: str, rows_a, rows_b
        ) -> Set[Tuple[bool, ...]]:
            left = self._matrix(list(rows_a))[:, None, :]
            right = self._matrix(list(rows_b))[None, :, :]
            if name == "LessThan":
                grid = left < right
            elif name == "LessEq":
                grid = left <= right
            elif name == "GreaterThan":
                grid = left > right
            elif name == "GreaterEq":
                grid = left >= right
            elif name == "Equal":
                grid = left == right
            else:
                raise ReproError(f"unknown comparison {name}")
            flat = grid.reshape(-1, grid.shape[-1])
            return {tuple(row) for row in flat.tolist()}

        def pairwise_select(self, keep, rows_then, rows_else) -> Set[Tuple[int, ...]]:
            then_rows = self._matrix(list(rows_then))[:, None, :]
            else_rows = self._matrix(list(rows_else))[None, :, :]
            mask = np.asarray(keep, dtype=bool)
            spliced = np.where(mask, then_rows, else_rows)
            return self._row_set(spliced)

    return NumpyColumnOps()


#: The always-available pure-Python backend.
PYTHON_OPS: ColumnOps = PythonColumnOps()

#: The numpy accelerator, or ``None`` when numpy is not importable.
NUMPY_OPS: Optional[ColumnOps] = _build_numpy_ops()


#: The active backend: numpy when importable, else pure Python.
_ACTIVE: ColumnOps = NUMPY_OPS if NUMPY_OPS is not None else PYTHON_OPS


def active_ops() -> ColumnOps:
    """The backend currently used by vectors, the evaluator and the domains."""
    return _ACTIVE


def backend_names() -> List[str]:
    """The names of the importable backends (``python`` always; ``numpy``
    when the soft dependency is present)."""
    names = [PYTHON_OPS.name]
    if NUMPY_OPS is not None:
        names.append(NUMPY_OPS.name)
    return names


def resolve_ops(backend: Union[str, ColumnOps, None]) -> ColumnOps:
    """Accept a backend name, a ready ops object, or ``None`` (the active)."""
    if backend is None:
        return _ACTIVE
    if isinstance(backend, ColumnOps):
        return backend
    if backend == PYTHON_OPS.name:
        return PYTHON_OPS
    if NUMPY_OPS is not None and backend == NUMPY_OPS.name:
        return NUMPY_OPS
    raise ReproError(
        f"unknown column backend {backend!r}; available: {', '.join(backend_names())}"
    )


@contextmanager
def use_backend(backend: Union[str, ColumnOps]) -> Iterator[ColumnOps]:
    """Temporarily switch the active backend (differential tests, benches)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = resolve_ops(backend)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
