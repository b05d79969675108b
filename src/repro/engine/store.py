"""Persistent, cross-process result store for solved requests.

The supervised solve fabric (:mod:`repro.engine.supervisor`) made repeat
traffic *survivable*; this module makes it *cheap*.  Every definitive
:class:`~repro.api.wire.SolveResponse` — certificate included — can be
recorded in a SQLite file keyed by ``(fingerprint, engine,
schema_version)`` and replayed by any later process that sends the same
request, so a served endpoint restarted between runs or a batch re-run
over the same directory pays for each solve exactly once.

Design points (documented in docs/architecture/fabric.md):

* **SQLite with WAL** (stdlib :mod:`sqlite3`, no new dependencies): WAL
  lets one process read while another writes the same file.  Each process
  opens **one connection** per store, lazily, and every thread shares it
  under one lock held across each whole operation, so a threading HTTP
  server does not open a connection per request (and close it, which
  checkpoints the WAL and deletes ``-wal``/``-shm``, as each request
  thread exits).  A store object inherited through ``fork`` drops the
  parent's connection and lock and opens its own; one re-created by
  ``spawn`` (via :meth:`__reduce__`) starts with none.
* **One key space** — ``fingerprint`` is :func:`request_key`, a SHA-256
  over the canonical JSON of the *semantic* wire request
  (:func:`repro.engine.results.request_fingerprint`), ``engine`` names the
  requested engine, and ``schema_version`` pins the wire format — a
  payload written by a build speaking schema v3 is invisible to a build
  speaking v4 rather than mis-parsed.
* **Looked up and recorded once, at the door** — :func:`lookup` and
  :func:`record` are the only callers of :meth:`ResultStore.get` and
  :meth:`ResultStore.put`, and only the places a request comes in call
  them: :class:`~repro.api.facade.Solver` (``solve``, ``check``,
  ``solve_request`` and ``solve_batch``) and the ``serve`` handler.
  Engine runs, fabric workers, portfolio legs and staged stages never
  touch the store.
* **Size-bounded LRU eviction** — every hit bumps a persistent access
  tick; a put that pushes the file's payload bytes over ``max_bytes``
  deletes least-recently-accessed rows (never the row just written) until
  the bound holds again.
* **Corruption tolerance** — a damaged store file (SQLite reports it
  corrupt or not a database) is renamed aside (``<path>.corrupt-<pid>-<n>``)
  and a fresh store is created in its place; a locked file or an I/O
  error is not damage and is never moved.  No store operation is ever
  fatal to the caller (failures count in the ``errors`` counter and
  degrade to miss/no-op).
* **Bypass rules** — the helpers neither read nor write the store while
  fault injection is armed (:func:`repro.testing.faults.faults_armed`) or
  for a ``path`` that is not a regular file (its text cannot be keyed),
  and :meth:`ResultStore.put` refuses whatever :func:`response_cacheable`
  rejects (non-definitive verdicts, fault evidence), so chaos runs cannot
  poison the cache.

The ambient accessor mirrors the fabric's: :func:`install_result_store`
pins a store for the process (the CLI's ``--store``), otherwise
:func:`get_result_store` lazily opens the path named by the
:data:`STORE_ENV` environment variable (``REPRO_NAY_STORE``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import stat
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.api.wire import (
    DEFINITIVE_VERDICTS,
    SCHEMA_VERSION,
    SolveRequest,
    SolveResponse,
)
from repro.engine.results import request_fingerprint
from repro.testing.faults import faults_armed

#: Environment variable naming the store file (the CLI's ``--store``).
STORE_ENV = "REPRO_NAY_STORE"

#: Environment variable overriding the eviction bound (bytes).
STORE_MAX_BYTES_ENV = "REPRO_NAY_STORE_MAX_BYTES"

#: Default eviction bound: responses are a few KB each, so 64 MiB holds
#: every benchmark x engine cell of the full suite many times over.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: ``solver_stats`` keys this layer adds to responses it served or
#: recorded.  They are provenance, not solver work: strip them before
#: storing or comparing payloads (:func:`pristine_response`).
STORE_STAT_KEYS = frozenset(
    {"store_hits", "store_misses", "store_stores", "store_evictions", "store_bypasses"}
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT NOT NULL,
    engine TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    response TEXT NOT NULL,
    size_bytes INTEGER NOT NULL,
    created_unix REAL NOT NULL,
    last_access INTEGER NOT NULL,
    access_count INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (fingerprint, engine, schema_version)
);
CREATE INDEX IF NOT EXISTS results_lru ON results (last_access);
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""


def response_cacheable(payload: Dict[str, Any]) -> bool:
    """May this response payload enter the store?

    Only *definitive* verdicts are worth replaying (``unknown``/``timeout``
    depend on the budget that produced them, ``error`` on transient state),
    and a response that shows any fault-injection evidence is refused
    outright — the consumers already bypass the store while faults are
    armed, but the store is the last line of defense against a chaos run
    poisoning clean traffic.
    """
    if payload.get("verdict") not in DEFINITIVE_VERDICTS:
        return False
    if payload.get("error"):
        return False
    stats = payload.get("solver_stats")
    if isinstance(stats, dict) and stats.get("faults_injected"):
        return False
    details = payload.get("details")
    if isinstance(details, dict) and details.get("fault_events"):
        return False
    return True


def pristine_response(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The payload without store-provenance markers (fit for storing).

    Responses accrue :data:`STORE_STAT_KEYS` counters and the serve tier's
    ``details["deduplicated"]`` marker as they travel; the stored form must
    be the response *as solved* so a store hit replays byte-identical JSON.
    """
    payload = dict(payload)
    stats = payload.get("solver_stats")
    if isinstance(stats, dict) and any(key in stats for key in STORE_STAT_KEYS):
        payload["solver_stats"] = {
            key: value for key, value in stats.items() if key not in STORE_STAT_KEYS
        }
    details = payload.get("details")
    if isinstance(details, dict) and "deduplicated" in details:
        payload["details"] = {
            key: value for key, value in details.items() if key != "deduplicated"
        }
    return payload


def _is_corrupt(error: sqlite3.DatabaseError) -> bool:
    """Does the error say the file is damaged (so it is quarantined)?

    SQLite's SQLITE_CORRUPT ("database disk image is malformed") and
    SQLITE_NOTADB ("file is not a database") reach Python as a plain
    :class:`sqlite3.DatabaseError`.  A file locked past the busy timeout,
    an I/O error or a full disk raises a subclass
    (:class:`sqlite3.OperationalError`): the file is healthy.
    """
    return type(error) is sqlite3.DatabaseError


@contextmanager
def _immediate(conn: sqlite3.Connection) -> Iterator[None]:
    """One ``BEGIN IMMEDIATE`` ... ``COMMIT`` transaction, rolled back on
    any exception."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield
        conn.execute("COMMIT")
    except BaseException:
        # SQLite may already have rolled back (SQLITE_BUSY, SQLITE_IOERR):
        # a bare ROLLBACK would raise over the error that decides whether
        # the file is quarantined.
        if conn.in_transaction:
            conn.execute("ROLLBACK")
        raise


#: Every live store, so a forked child can reset their connections and locks.
_STORES: "weakref.WeakSet[ResultStore]" = weakref.WeakSet()

#: Connections a forked child inherited mid-operation: never used or closed.
_INHERITED_CONNECTIONS: List[sqlite3.Connection] = []


def _reset_stores_after_fork() -> None:
    for store in list(_STORES):
        store._after_fork()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_stores_after_fork)


class ResultStore:
    """One SQLite-backed result store file (see the module docstring).

    Thread-safe and process-safe: each process opens one connection
    lazily, every thread uses it under :attr:`_lock` (held across each
    whole operation, so one thread's transaction never interleaves with
    another's), and WAL + a busy timeout arbitrate writers in other
    processes.  Instances pickle by ``(path, max_bytes)`` — counters are
    per-process.
    """

    def __init__(self, path: "str | Path", max_bytes: Optional[int] = None):
        self.path = str(path)
        if max_bytes is None:
            raw = os.environ.get(STORE_MAX_BYTES_ENV)
            max_bytes = int(raw) if raw else DEFAULT_MAX_BYTES
        self.max_bytes = max(1, int(max_bytes))
        self.busy_timeout_seconds = 10.0
        #: Guards :attr:`_conn` and every statement run on it.
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self._counter_lock = threading.Lock()
        self._counters = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
            "bypasses": 0,
            "errors": 0,
        }
        self._quarantines = 0
        _STORES.add(self)

    def __reduce__(self):
        return (type(self), (self.path, self.max_bytes))

    # -- connection management -------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """The process's connection, opened on first use (hold the lock)."""
        if self._conn is None:
            try:
                self._conn = self._open()
            except sqlite3.DatabaseError as error:
                if not _is_corrupt(error):
                    raise
                # A damaged file must never be fatal: move it aside, start over.
                self._quarantine()
                self._conn = self._open()
        return self._conn

    def _open(self) -> sqlite3.Connection:
        parent = Path(self.path).parent
        if str(parent) not in ("", "."):
            parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            self.path,
            timeout=self.busy_timeout_seconds,
            isolation_level=None,  # autocommit; transactions are explicit
            check_same_thread=False,  # shared by every thread under the lock
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_SCHEMA)
        return conn

    def _fail(self, error: sqlite3.DatabaseError) -> None:
        """Count a failed operation (hold the lock).

        Only a corrupt file is quarantined; after any other error (the file
        locked past the busy timeout, a disk I/O error) the connection is
        dropped, so the next operation starts on a fresh one.
        """
        self._count("errors")
        if _is_corrupt(error):
            self._quarantine()
        else:
            self._drop_connection()

    def _quarantine(self) -> None:
        """Rename the (corrupt) store file aside so ``_open`` starts fresh.

        Drops the one shared connection: every thread's next operation
        reopens the fresh file.
        """
        self._drop_connection()
        self._quarantines += 1
        aside = f"{self.path}.corrupt-{os.getpid()}-{self._quarantines}"
        for suffix in ("", "-wal", "-shm"):
            source = f"{self.path}{suffix}"
            if os.path.exists(source):
                try:
                    os.replace(source, f"{aside}{suffix}")
                except OSError:
                    pass

    def _drop_connection(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def _after_fork(self) -> None:
        """Forget the parent's connection and locks in a forked child.

        A parent thread may have held either lock when the process forked.
        The parent's connection is closed here unless an operation was
        running on it: a thread inside SQLite holds the connection's own
        mutex, so closing it would block forever, and it is kept instead,
        never used or closed.
        """
        if self._conn is not None and self._lock.locked():
            _INHERITED_CONNECTIONS.append(self._conn)
            self._conn = None
        self._drop_connection()
        self._lock = threading.Lock()
        self._counter_lock = threading.Lock()

    def close(self) -> None:
        """Close the process's connection (the next operation reopens it).

        The last connection to the file closing checkpoints the WAL into the
        database and deletes ``-wal``/``-shm``; ``serve`` calls this on exit.
        """
        with self._lock:
            self._drop_connection()

    # -- counters --------------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        with self._counter_lock:
            self._counters[key] += amount

    def note_bypass(self) -> None:
        """Record that a consumer skipped the store (fault injection armed)."""
        self._count("bypasses")

    @property
    def counters(self) -> Dict[str, int]:
        with self._counter_lock:
            return dict(self._counters)

    def snapshot(self) -> Dict[str, Any]:
        """Per-process counters plus the file's persistent totals.

        ``entries``/``size_bytes`` describe the file now; ``stores_total``
        counts every put across *all* processes that ever wrote this file
        (the cross-process "exactly one solve per fingerprint" witness).
        """
        snapshot: Dict[str, Any] = {
            "path": self.path,
            "max_bytes": self.max_bytes,
            **self.counters,
        }
        with self._lock:
            try:
                conn = self._connection()
                row = conn.execute(
                    "SELECT COUNT(*), COALESCE(SUM(size_bytes), 0) FROM results"
                ).fetchone()
                snapshot["entries"] = row[0]
                snapshot["size_bytes"] = row[1]
                snapshot["stores_total"] = self._meta(conn, "stores_total")
                snapshot["evictions_total"] = self._meta(conn, "evictions_total")
            except sqlite3.Error:
                snapshot["entries"] = None
                snapshot["size_bytes"] = None
        return snapshot

    def stores_recorded(self) -> int:
        """Cross-process total of puts into this file (0 on any failure)."""
        with self._lock:
            try:
                return self._meta(self._connection(), "stores_total")
            except sqlite3.Error:
                return 0

    @staticmethod
    def _meta(conn: sqlite3.Connection, key: str) -> int:
        row = conn.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return int(row[0]) if row is not None else 0

    @staticmethod
    def _bump_meta(conn: sqlite3.Connection, key: str, amount: int = 1) -> int:
        conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = value + ?",
            (key, amount, amount),
        )
        return ResultStore._meta(conn, key)

    # -- the store operations --------------------------------------------------

    def get(
        self,
        fingerprint: str,
        engine: str,
        schema_version: int = SCHEMA_VERSION,
    ) -> Optional[Dict[str, Any]]:
        """The stored response payload for a key, or ``None`` (a miss).

        A hit bumps the row's access tick (the LRU ordering) and count.
        Undecodable rows are deleted and reported as misses; any database
        error degrades to a miss (a corrupt file is quarantined).
        """
        key = (fingerprint, engine, int(schema_version))
        with self._lock:
            try:
                conn = self._connection()
                with _immediate(conn):
                    row = conn.execute(
                        "SELECT response FROM results WHERE fingerprint = ? "
                        "AND engine = ? AND schema_version = ?",
                        key,
                    ).fetchone()
                    if row is not None:
                        tick = self._bump_meta(conn, "tick")
                        conn.execute(
                            "UPDATE results SET last_access = ?, "
                            "access_count = access_count + 1 WHERE fingerprint = ? "
                            "AND engine = ? AND schema_version = ?",
                            (tick, *key),
                        )
            except sqlite3.DatabaseError as error:
                self._fail(error)
                row = None
        if row is None:
            self._count("misses")
            return None
        try:
            payload = json.loads(row[0])
        except ValueError:
            # A torn row is unreadable, not fatal: drop it, report a miss.
            self._count("errors")
            with self._lock:
                try:
                    self._connection().execute(
                        "DELETE FROM results WHERE fingerprint = ? AND engine = ? "
                        "AND schema_version = ?",
                        key,
                    )
                except sqlite3.Error:
                    pass
            self._count("misses")
            return None
        self._count("hits")
        return payload

    def put(
        self,
        fingerprint: str,
        engine: str,
        payload: Dict[str, Any],
        schema_version: int = SCHEMA_VERSION,
    ) -> Tuple[bool, int]:
        """Record a response payload; returns ``(stored, rows_evicted)``.

        Refuses payloads :func:`response_cacheable` rejects and payloads
        larger than the whole eviction bound.  After the insert,
        least-recently-accessed rows (never the one just written) are
        deleted until the payload bytes fit ``max_bytes`` again.  Errors
        degrade to ``(False, 0)`` (a corrupt file is quarantined).
        """
        if not response_cacheable(payload):
            return False, 0
        body = json.dumps(payload, sort_keys=True)
        size = len(body.encode("utf-8"))
        if size > self.max_bytes:
            return False, 0
        key = (fingerprint, engine, int(schema_version))
        evicted = 0
        with self._lock:
            try:
                conn = self._connection()
                with _immediate(conn):
                    tick = self._bump_meta(conn, "tick")
                    conn.execute(
                        "INSERT OR REPLACE INTO results (fingerprint, engine, "
                        "schema_version, response, size_bytes, created_unix, "
                        "last_access, access_count) VALUES (?, ?, ?, ?, ?, ?, ?, 0)",
                        (*key, body, size, time.time(), tick),
                    )
                    self._bump_meta(conn, "stores_total")
                    total = conn.execute(
                        "SELECT COALESCE(SUM(size_bytes), 0) FROM results"
                    ).fetchone()[0]
                    while total > self.max_bytes:
                        victim = conn.execute(
                            "SELECT rowid, size_bytes FROM results WHERE NOT "
                            "(fingerprint = ? AND engine = ? AND schema_version = ?) "
                            "ORDER BY last_access ASC, rowid ASC LIMIT 1",
                            key,
                        ).fetchone()
                        if victim is None:
                            break
                        conn.execute(
                            "DELETE FROM results WHERE rowid = ?", (victim[0],)
                        )
                        total -= victim[1]
                        evicted += 1
                    if evicted:
                        self._bump_meta(conn, "evictions_total", evicted)
            except sqlite3.DatabaseError as error:
                self._fail(error)
                return False, 0
        self._count("stores")
        if evicted:
            self._count("evictions", evicted)
        return True, evicted


# ---------------------------------------------------------------------------
# The ambient store (mirrors the fabric's install/get pair)
# ---------------------------------------------------------------------------

_AMBIENT: Optional[ResultStore] = None
_AMBIENT_LOCK = threading.Lock()
_ENV_STORES: Dict[str, ResultStore] = {}


def install_result_store(store: Optional[ResultStore]) -> Optional[ResultStore]:
    """Pin the process-wide store (``None`` falls back to the environment).

    Returns the previously installed store so tests and embedders can
    restore it.
    """
    global _AMBIENT
    with _AMBIENT_LOCK:
        previous, _AMBIENT = _AMBIENT, store
    return previous


def get_result_store() -> Optional[ResultStore]:
    """The ambient store: the installed one, else the ``REPRO_NAY_STORE``
    path (opened lazily and memoized per path), else ``None``."""
    with _AMBIENT_LOCK:
        if _AMBIENT is not None:
            return _AMBIENT
        path = os.environ.get(STORE_ENV)
        if not path:
            return None
        store = _ENV_STORES.get(path)
        if store is None:
            store = ResultStore(path)
            _ENV_STORES[path] = store
        return store


# ---------------------------------------------------------------------------
# The door helpers: the only callers of ResultStore.get / ResultStore.put
# ---------------------------------------------------------------------------


def _file_digest(path: Any) -> Optional[str]:
    """SHA-256 of a regular file's bytes, or ``None`` when ``path`` names none.

    A FIFO, a device such as ``/dev/zero`` or a directory is never opened
    (opening a FIFO, even non-blocking, would briefly make this its reader),
    nor read if it replaced the file between the check and the open.  The
    file is hashed in chunks, so a large one costs no memory.  A malformed
    name (not a string or path, an embedded NUL) is ``None`` too.
    """
    if not isinstance(path, (str, os.PathLike)):
        return None
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    except (OSError, ValueError):
        return None
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            return None
        digest = hashlib.sha256()
        for chunk in iter(lambda: os.read(fd, 1 << 16), b""):
            digest.update(chunk)
    except OSError:
        return None
    finally:
        os.close(fd)
    return digest.hexdigest()


def request_key(request: SolveRequest) -> Optional[str]:
    """The store key of a request, or ``None`` when it cannot have one.

    :func:`~repro.engine.results.request_fingerprint` of the wire payload.
    A ``path`` request names a file whose text can change between runs, so
    its key also hashes the file's bytes (a real request sets exactly one of
    ``path``/``sl``, so the two cannot collide): an edited file is solved
    again rather than answered with the old file's verdict.  A path that is
    not a readable regular file (a pipe such as ``<(...)``, a device, a
    directory, a malformed name) has no text to key on, so it has no key
    and the store neither answers nor records it.
    """
    payload = request.to_json()
    if request.path:
        digest = _file_digest(request.path)
        if digest is None:
            return None
        payload["sl"] = digest
    return request_fingerprint(payload)


def lookup(
    request: SolveRequest,
) -> Tuple[Optional[str], Optional[Dict[str, Any]]]:
    """Key a request and look it up in the ambient store: ``(key, hit)``.

    ``hit`` is the stored payload marked ``solver_stats["store_hits"]``, or
    ``None`` to solve the request.  ``key`` is what :func:`record` files the
    solved response under; it is ``None`` when no store is configured (no
    key is computed), when fault injection is armed, or when the request has
    no :func:`request_key` (the last two count as a bypass).
    """
    store = get_result_store()
    if store is None:
        return None, None
    key = None if faults_armed(request.tags) else request_key(request)
    if key is None:
        store.note_bypass()
        return None, None
    payload = store.get(key, request.engine)
    if payload is not None:
        payload["solver_stats"] = {
            **(payload.get("solver_stats") or {}),
            "store_hits": 1,
        }
    return key, payload


def record(
    request: SolveRequest, response: SolveResponse, key: Optional[str]
) -> SolveResponse:
    """File the response to a missed :func:`lookup` under its ``key``.

    The stored form is :func:`pristine_response`, so a later hit replays the
    response as solved, and :meth:`ResultStore.put` refuses what
    :func:`response_cacheable` rejects.  The response gains
    ``store_misses`` (plus ``store_stores``/``store_evictions`` when the put
    wrote or evicted rows), or ``store_bypasses`` when the lookup bypassed
    the store (``key`` is ``None``; nothing is written).  Without a store it
    is returned untouched.
    """
    store = get_result_store()
    if store is None:
        return response
    if key is None:
        marks = {"store_bypasses": 1}
    else:
        marks = {"store_misses": 1}
        stored, evicted = store.put(
            key, request.engine, pristine_response(response.to_json())
        )
        if stored:
            marks["store_stores"] = 1
        if evicted:
            marks["store_evictions"] = evicted
    response.solver_stats = {**response.solver_stats, **marks}
    return response
