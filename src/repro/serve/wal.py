"""Crash-safe write-ahead log for the serve daemon.

Every job the daemon *accepts asynchronously* is recorded here before the
client gets its 202 — the WAL is the durability contract behind the
"zero lost, zero duplicated" guarantee.  On restart the daemon replays
the log: jobs with a terminal record are answerable immediately, jobs
without one go back on the queue exactly once.

Record format
-------------
One record per line::

    <crc32 as 8 lowercase hex><space><compact JSON object>\\n

The checksum covers the JSON bytes, so a torn tail (the signature of a
killed writer — the only corruption an append-only, fsync'd log can
legally contain) is detected and dropped during replay; a bad checksum
anywhere *else* means real corruption and raises :class:`WALError`
(pass ``strict=False`` to skip such records with a warning instead).
Every record carries a ``type``:

``submit``
    ``{"type", "id", "kind", "params", "key", "deadline", "submitted_at"}``
    — a job was accepted.
``coalesce``
    ``{"type", "id", "into"}`` — the job rides along on an identical
    in-flight point (its answer will come from the leader's execution).
``done``
    ``{"type", "id", "result"}`` — terminal; ``result`` is a compact
    :class:`~repro.analysis.results.RunResult` dict (no trace — traces
    are large and reconstructible by re-execution).
``cancel``
    ``{"type", "id"}`` — terminal without a result.
``requeue``
    ``{"type", "id"}`` — informational: a drain returned the job to the
    queue.  Replay treats it like the original ``submit`` (the job is
    still owed an answer).

Sync policy
-----------
``sync="always"`` (the default) fsyncs every append — an accepted job
survives power loss.  ``sync="batch"`` flushes to the OS on every append
but fsyncs only on :meth:`WriteAheadLog.sync` / :meth:`close` (crash of
the *process* loses nothing; loss of the *machine* can drop the tail) —
the high-throughput setting for load tests.  ``sync="off"`` never fsyncs.

Compaction
----------
An append-only log grows forever, so :meth:`WriteAheadLog.compact`
atomically rewrites it from a folded ledger — pending jobs keep their
``submit`` records, terminal jobs collapse to ``submit`` + ``done``, and
everything older than the newest ``keep_terminal`` terminal jobs is
dropped (:data:`KEEP_TERMINAL`).  The daemon compacts after every replay
and keeps the same number of terminal jobs in memory.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import warnings
import zlib
from pathlib import Path

__all__ = [
    "WAL_SYNC_MODES",
    "KEEP_TERMINAL",
    "WALError",
    "WriteAheadLog",
    "iter_records",
    "fold_records",
]

WAL_SYNC_MODES = ("always", "batch", "off")

#: Terminal jobs a compaction keeps on disk, and the daemon in memory.
KEEP_TERMINAL = 10_000

#: Record types that end a job's lifecycle.
_TERMINAL_TYPES = ("done", "cancel")


class WALError(RuntimeError):
    """Mid-file corruption: a bad checksum that cannot be a torn tail."""


def _encode(record: dict) -> bytes:
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}\n".encode("utf-8")


def iter_records(path: str | Path, strict: bool = True):
    """Yield every valid record in the log, in append order.

    A torn *final* line is always skipped silently (that is the one
    legal artifact of a crash mid-append).  A checksum or JSON failure
    anywhere else raises :class:`WALError` when ``strict`` (default), or
    is skipped with a warning otherwise.
    """
    path = Path(path)
    if not path.is_file():
        return
    raw_lines = path.read_bytes().split(b"\n")
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()
    for i, raw in enumerate(raw_lines):
        bad = None
        record = None
        if len(raw) < 10 or raw[8:9] != b" ":
            bad = "malformed line"
        else:
            body = raw[9:]
            try:
                expected = int(raw[:8], 16)
            except ValueError:
                expected = None
                bad = "malformed checksum"
            if expected is not None:
                if (zlib.crc32(body) & 0xFFFFFFFF) != expected:
                    bad = "checksum mismatch"
                else:
                    try:
                        record = json.loads(body.decode("utf-8"))
                    except (UnicodeDecodeError, json.JSONDecodeError):
                        bad = "undecodable payload"
        if bad is None:
            yield record
            continue
        if i == len(raw_lines) - 1:
            return  # torn tail: a killed writer, not corruption
        if strict:
            raise WALError(f"{path}: {bad} at record {i} (not the tail)")
        warnings.warn(
            f"{path}: skipping record {i} ({bad})", RuntimeWarning, stacklevel=2
        )


def fold_records(records) -> dict[str, dict]:
    """Fold a record stream into a per-job ledger, submission-ordered.

    Returns ``{job_id: {"job": <submit record>, "status": "pending" |
    "done" | "cancelled", "result": <dict | None>, "coalesced_into":
    <leader id | None>}}`` — everything replay needs to rebuild the
    queue with zero lost and zero duplicated jobs.  Records for unknown
    job ids (a compaction raced a writer) are tolerated and dropped.
    """
    ledger: dict[str, dict] = {}
    for record in records:
        rtype = record.get("type")
        rid = record.get("id")
        if rtype == "submit":
            ledger.setdefault(
                rid,
                {
                    "job": record,
                    "status": "pending",
                    "result": None,
                    "coalesced_into": None,
                },
            )
        elif rtype == "coalesce" and rid in ledger:
            ledger[rid]["coalesced_into"] = record.get("into")
        elif rtype == "done" and rid in ledger:
            ledger[rid]["status"] = "done"
            ledger[rid]["result"] = record.get("result")
        elif rtype == "cancel" and rid in ledger:
            ledger[rid]["status"] = "cancelled"
        # "requeue" and unknown types change nothing at replay time
    return ledger


class WriteAheadLog:
    """Append-only, checksummed, fsync'd job log (thread-safe)."""

    def __init__(self, path: str | Path, sync: str = "always") -> None:
        if sync not in WAL_SYNC_MODES:
            raise ValueError(
                f"unknown WAL sync mode {sync!r} (use one of {WAL_SYNC_MODES})"
            )
        self.path = Path(path)
        self.sync_mode = sync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh = open(self.path, "ab")
        self.appended = 0
        self.bytes_written = 0

    # -- writing ---------------------------------------------------------- #
    def append(self, type_: str, **fields) -> dict:
        """Durably append one record; returns it."""
        record = {"type": type_, **fields}
        data = _encode(record)
        with self._lock:
            if self._fh.closed:
                raise WALError(f"{self.path}: log is closed")
            self._fh.write(data)
            self._fh.flush()
            if self.sync_mode == "always":
                os.fsync(self._fh.fileno())
            self.appended += 1
            self.bytes_written += len(data)
        return record

    def sync(self) -> None:
        """Force an fsync (the group-commit point for ``sync="batch"``)."""
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                if self.sync_mode != "off":
                    os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                if self.sync_mode != "off":
                    os.fsync(self._fh.fileno())
                self._fh.close()

    # -- reading / maintenance --------------------------------------------- #
    def replay(self, strict: bool = True) -> dict[str, dict]:
        """The folded ledger of everything currently in the log."""
        return fold_records(iter_records(self.path, strict=strict))

    def compact(self, ledger: dict[str, dict], keep_terminal: int | None = None) -> int:
        """Atomically rewrite the log from a folded ledger.

        Pending (and coalesced-pending) jobs keep their full record
        chains; terminal jobs keep ``submit`` + terminal record, oldest
        terminal jobs beyond ``keep_terminal`` (default
        :data:`KEEP_TERMINAL`) are dropped entirely.
        Returns the number of jobs written.  The append handle is
        re-opened on the new file, so the log object stays usable.
        """
        terminal = [
            (entry["job"].get("submitted_at", 0.0), jid, entry)
            for jid, entry in ledger.items()
            if entry["status"] != "pending"
        ]
        terminal.sort()
        keep = KEEP_TERMINAL if keep_terminal is None else keep_terminal
        dropped = {jid for _, jid, _ in terminal[: max(0, len(terminal) - keep)]}
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".wal.tmp")
        written = 0
        try:
            with os.fdopen(fd, "wb") as fh:
                for jid, entry in ledger.items():
                    if jid in dropped:
                        continue
                    fh.write(_encode(entry["job"]))
                    if entry.get("coalesced_into"):
                        fh.write(
                            _encode(
                                {
                                    "type": "coalesce",
                                    "id": jid,
                                    "into": entry["coalesced_into"],
                                }
                            )
                        )
                    if entry["status"] == "done":
                        fh.write(
                            _encode(
                                {"type": "done", "id": jid, "result": entry["result"]}
                            )
                        )
                    elif entry["status"] == "cancelled":
                        fh.write(_encode({"type": "cancel", "id": jid}))
                    written += 1
                fh.flush()
                os.fsync(fh.fileno())
            with self._lock:
                if not self._fh.closed:
                    self._fh.close()
                os.replace(tmp, self.path)
                self._fh = open(self.path, "ab")
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        return written
