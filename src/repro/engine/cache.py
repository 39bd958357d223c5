"""Persistent, content-addressed result cache in one SQLite file.

``<cache_dir>/cache.sqlite`` holds ``entries(key PRIMARY KEY, entry BLOB,
used)``; each ``entry`` is ``{"key", "payload"}`` framed by
:func:`repro.engine.wal.encode` (the CRC32 line of ``results.jsonl``), so
neither a flipped digit nor a row reached under another key ever loads
as a count.  WAL journal mode keeps committed rows through a killed
process; ``synchronous=OFF`` never fsyncs, since the checks above turn
whatever a power loss could tear into a recomputed miss.  SQLite's
locking lets sweeps share a directory.

A row failing its frame reads as a miss: its bytes move to
``quarantine/<key>.json`` (written by whichever racing process's ``DELETE
… WHERE key=? AND entry=?`` removed the row) and ``on_corrupt`` fires.
An unreadable database moves into ``quarantine/`` with its
``-wal``/``-shm`` and the cache starts empty.  ``get``/``put`` never raise.

``max_bytes`` bounds the summed ``length(entry)``: a put over it evicts
the least recently ``used`` rows (last put, or last hit under a budget)
in one transaction.  Triggers keep the total in a one-row ``size`` table
and an index on ``used`` finds the oldest rows, so no put scans the table.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from pathlib import Path
from typing import Callable

from repro.engine.wal import decode, encode

__all__ = ["ResultCache"]

_DB_NAME = "cache.sqlite"
_QUARANTINE = "quarantine"
_VERSION = 1
_SCHEMA = f"""PRAGMA journal_mode=WAL; BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, entry BLOB NOT NULL, used INTEGER);
CREATE INDEX IF NOT EXISTS entries_used ON entries (used);
CREATE TABLE IF NOT EXISTS size (bytes INTEGER NOT NULL);
INSERT INTO size SELECT 0 WHERE NOT EXISTS (SELECT * FROM size);
CREATE TRIGGER IF NOT EXISTS size_ins AFTER INSERT ON entries BEGIN
    UPDATE size SET bytes = bytes + length(NEW.entry); END;
CREATE TRIGGER IF NOT EXISTS size_upd AFTER UPDATE OF entry ON entries BEGIN
    UPDATE size SET bytes = bytes + length(NEW.entry) - length(OLD.entry); END;
CREATE TRIGGER IF NOT EXISTS size_del AFTER DELETE ON entries BEGIN
    UPDATE size SET bytes = bytes - length(OLD.entry); END;
PRAGMA user_version={_VERSION}; COMMIT;"""
_PUT = ("INSERT INTO entries VALUES (?, ?, ?) ON CONFLICT (key) "
        "DO UPDATE SET entry = excluded.entry, used = excluded.used")
_SIZE = "SELECT bytes FROM size"


def _load(key: str, blob):
    """The payload stored under ``key``, or None when the entry fails its
    frame or was written for another key."""
    if isinstance(blob, bytes) and blob[:1] != b"{":  # framed, as put stores it
        with contextlib.suppress(ValueError, AttributeError):
            record = decode(blob[:-1])  # minus encode's newline
            if record.get("key") == key:
                return record.get("payload")
    return None


class ResultCache:
    """On-disk store of framed JSON payloads keyed by hex digests."""

    def __init__(self, cache_dir: str | Path,
                 on_corrupt: Callable[[str, Path], None] | None = None,
                 max_bytes: int | None = None,
                 on_evict: Callable[[str], None] | None = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.dir = Path(cache_dir).expanduser()
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / _DB_NAME
        self.on_corrupt = on_corrupt
        self.on_evict = on_evict
        self.max_bytes = max_bytes
        self._db = self._parents = None
        self._pid = os.getpid()
        self._lock = threading.Lock()

    def _run(self, op, default=None, quiet: bool = False, fix: bool = True):
        """``op(connection)`` under this process's lock and connection.  An
        unreadable database reads as ``default`` (and, with ``fix``, is
        quarantined); ``quiet`` treats any other database error (a lock
        held past the timeout) the same way."""
        import sqlite3  # lazy: 4 ms off every ``import repro.engine``

        if self._pid != os.getpid():  # forked: the parent's connection is kept
            # referenced, never used or closed here (SQLite's fork rule)
            self._parents, self._db = self._db, None
            self._pid, self._lock = os.getpid(), threading.Lock()
        try:
            with self._lock:
                if self._db is None:
                    db = sqlite3.connect(self.path, isolation_level=None,
                                         check_same_thread=False)
                    db.execute("PRAGMA synchronous=OFF")
                    if db.execute("PRAGMA user_version").fetchone()[0] != _VERSION:
                        db.executescript(_SCHEMA)
                    self._db = db
                return op(self._db)
        except sqlite3.DatabaseError as exc:
            code = getattr(exc, "sqlite_errorcode", 0) & 0xFF
            if code not in (sqlite3.SQLITE_CORRUPT, sqlite3.SQLITE_NOTADB):
                if not quiet:
                    raise
            elif fix:
                self._quarantine_db()
            return default

    def close(self) -> None:
        """Close this process's connection (the next call reopens it)."""
        if self._pid != os.getpid():
            return  # a forked copy: the connection is the parent's
        with self._lock:
            if self._db is not None:
                self._db.close()
            self._db = None

    def _evidence(self, key: str, name: str, data: bytes = b"", src: Path | None = None):
        """Fill a fresh ``quarantine/<name>[.N]`` with ``data`` or move
        ``src`` onto it, and report it; None when ``src`` is gone."""
        qdir = self.dir / _QUARANTINE
        qdir.mkdir(exist_ok=True)
        for serial in itertools.count():
            dest = qdir / (f"{name}.{serial}" if serial else name)
            with contextlib.suppress(FileExistsError), open(dest, "xb") as fh:
                fh.write(data)  # "x" reserves the name: evidence is never clobbered
                break
        try:
            if src is not None:
                os.replace(src, dest)
        except FileNotFoundError:
            dest.unlink()
            return None
        if self.on_corrupt is not None and key:
            self.on_corrupt(key, dest)
        return dest

    def _quarantine(self, key: str, blob) -> Path | None:
        """Move one corrupt row aside, unless a racer deleted it first."""
        if not self._run(lambda db: db.execute(
                "DELETE FROM entries WHERE key = ? AND entry = ?", (key, blob)
        ).rowcount, 0, quiet=True):
            return None
        data = blob if isinstance(blob, bytes) else str(blob).encode("utf-8")
        return self._evidence(key, f"{key}.json", data)

    def _quarantine_db(self) -> Path | None:
        """Move an unreadable database and its ``-wal``/``-shm`` aside."""
        self.close()
        dest = self._evidence(_DB_NAME, _DB_NAME, src=self.path)
        for side in (self.dir / f"{_DB_NAME}-wal", self.dir / f"{_DB_NAME}-shm"):
            if dest is not None and side.exists():
                self._evidence("", side.name, src=side)
        return dest

    def get(self, key: str) -> dict | None:
        """The stored payload, or None on a miss; a corrupt row is
        quarantined, reported via ``on_corrupt`` and read as a miss."""
        row = self._run(lambda db: db.execute(
            "SELECT entry FROM entries WHERE key = ?", (key,)).fetchone(), quiet=True)
        if row is None:
            return None
        payload = _load(key, row[0])
        if payload is None:
            self._quarantine(key, row[0])
        elif self.max_bytes is not None:  # mark recency for LRU eviction
            self._run(lambda db: db.execute("UPDATE entries SET used = ? WHERE key = ?",
                                            (time.time_ns(), key)), quiet=True)
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Persist ``payload`` under ``key`` in one statement; enforce the budget."""
        blob = encode({"key": key, "payload": payload})

        def insert(db) -> bool:
            db.execute(_PUT, (key, blob, time.time_ns()))
            return (self.max_bytes is not None
                    and db.execute(_SIZE).fetchone()[0] > self.max_bytes)

        if self._run(insert, False, quiet=True):
            self.enforce_budget()

    def total_bytes(self) -> int:
        """Exact total size of every stored entry."""
        return self._run(lambda db: db.execute(_SIZE).fetchone()[0], 0)

    def enforce_budget(self) -> list[str]:
        """Evict least-recently-used rows until the cache fits, in one
        transaction; returns the evicted keys, oldest first (none without
        a budget)."""
        if self.max_bytes is None:
            return []

        def evict(db) -> list[str]:
            db.execute("BEGIN IMMEDIATE")
            with db:
                total, victims = db.execute(_SIZE).fetchone()[0], []
                rows = db.execute("SELECT key, length(entry) FROM entries ORDER BY used")
                for key, size in rows:
                    if total <= self.max_bytes:
                        break
                    victims.append(key)
                    total -= size
                rows.close()
                db.executemany("DELETE FROM entries WHERE key = ?", [(k,) for k in victims])
            return victims

        evicted = self._run(evict, [], quiet=True)
        for key in evicted if self.on_evict is not None else ():
            self.on_evict(key)
        return evicted

    def verify(self) -> dict:
        """Check every row's frame: ``{"entries", "corrupt", "quarantined",
        "ok"}``, ``corrupt`` listing failing keys (or the database's path
        when SQLite cannot read it).  Read-only."""
        return self._audit()[0]

    def repair(self) -> dict:
        """Quarantine what :meth:`verify` finds; its report (what was
        found) gains ``repaired`` (``{"quarantined": [paths]}``)."""
        report, bad = self._audit()
        moved = [self._quarantine_db() if blob is None else self._quarantine(key, blob)
                 for key, blob in bad]
        report["repaired"] = {"quarantined": [str(p) for p in moved if p is not None]}
        return report

    def _audit(self) -> tuple[dict, list]:
        entries, bad = self._run(lambda db: (
            db.execute("SELECT count(*) FROM entries").fetchone()[0],
            [(key, blob) for key, blob in db.execute(
                "SELECT key, entry FROM entries ORDER BY key") if _load(key, blob) is None],
        ), (0, [(str(self.path), None)]), fix=False)
        qdir = self.dir / _QUARANTINE
        return {"entries": entries, "corrupt": [key for key, _ in bad],
                "quarantined": len(list(qdir.iterdir())) if qdir.is_dir() else 0,
                "ok": not bad}, bad

    def __contains__(self, key: str) -> bool:
        return self._run(lambda db: db.execute(
            "SELECT 1 FROM entries WHERE key = ?", (key,)).fetchone()) is not None

    def __len__(self) -> int:
        return self._run(lambda db: db.execute("SELECT count(*) FROM entries").fetchone()[0], 0)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        return self._run(lambda db: db.execute("DELETE FROM entries").rowcount, 0)
