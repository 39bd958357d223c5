"""One durable record log, shared by sweeps and the serve daemon.

A sweep's ``results.jsonl`` (one RunResult dict per point) and the serve
daemon's ``serve.wal`` (job records, :mod:`repro.serve.wal`) are both
append-only logs of one record per line::

    <crc32 as 8 lowercase hex><space><compact JSON object>\\n

The checksum covers the JSON bytes, so a flipped digit cannot load as a
different count.  A torn final line — a writer killed mid-append, the
one corruption an append-only log can legally hold — is skipped silently
by :func:`iter_records` and truncated when :class:`RecordLog` opens the
file, so no append glues onto it.  A bad line anywhere else raises
:class:`WALError` (``strict=False`` skips it with a warning).  Lines
starting with ``{`` are unframed records of sweeps that predate the
checksum; they load unchecked, also followed by framed ones.

Sync modes: ``"always"`` fsyncs every append (an accepted serve job
survives power loss); ``"batch"`` flushes every append and fsyncs only
on :meth:`RecordLog.sync` / :meth:`RecordLog.close`; ``"off"`` never
fsyncs — sweeps use it, flushing each point's record as it finishes.
:func:`atomic_write` is the temp-file + ``os.replace`` rewrite behind
the run manifest, WAL compaction and the endpoint file.  The result cache
(:mod:`repro.engine.cache`) stores each payload in this same framing, one
SQLite row per line.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
import warnings
import zlib
from pathlib import Path

__all__ = ["WAL_SYNC_MODES", "WALError", "RecordLog", "atomic_write", "decode",
           "encode", "iter_records"]

WAL_SYNC_MODES = ("always", "batch", "off")


class WALError(RuntimeError):
    """Mid-file corruption: a bad line that cannot be a torn tail."""


def encode(record: dict) -> bytes:
    """One framed line; key order never changes the bytes."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(body.encode('utf-8')):08x} {body}\n".encode("utf-8")


def decode(raw: bytes):
    """The record on one line; ValueError says what is wrong with it."""
    if raw[:1] == b"{":
        body = raw  # unframed: written before the checksummed framing
    elif len(raw) < 10 or raw[8:9] != b" ":
        raise ValueError("malformed line")
    else:
        body = raw[9:]
        try:
            expected = int(raw[:8], 16)
        except ValueError:
            raise ValueError("malformed checksum") from None
        if zlib.crc32(body) != expected:
            raise ValueError("checksum mismatch")
    try:
        return json.loads(body)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError("undecodable payload") from None


def iter_records(path: str | Path, strict: bool = True):
    """Yield every valid record in the log, in append order.

    A torn *final* line is always skipped silently (the one legal
    artifact of a crash mid-append).  A bad line anywhere else raises
    :class:`WALError` when ``strict`` (default), or is skipped with a
    warning otherwise.  A missing file yields nothing.
    """
    path = Path(path)
    if not path.is_file():
        return
    lines = path.read_bytes().split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    for i, raw in enumerate(lines):
        try:
            record = decode(raw)
        except ValueError as exc:
            if i == len(lines) - 1:
                return  # torn tail: a killed writer, not corruption
            if strict:
                raise WALError(f"{path}: {exc} at record {i} (not the tail)") from None
            warnings.warn(
                f"{path}: skipping record {i} ({exc})", RuntimeWarning, stacklevel=2
            )
            continue
        yield record


def atomic_write(path: Path, data: bytes, fsync: bool = False) -> None:
    """Replace ``path`` with ``data`` in one step: a crash leaves the old
    file or the new one, never a torn one.  ``fsync`` makes the new bytes
    durable before the rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _truncate_torn_tail(fh, path: Path) -> None:
    """Cut a final line that lacks its newline, reading only the tail."""
    end = fh.seek(0, os.SEEK_END)
    if end == 0:
        return
    fh.seek(end - 1)
    if fh.read(1) == b"\n":
        return
    pos, cut = end - 1, 0
    while pos > 0:
        step = min(pos, 1 << 16)
        pos -= step
        fh.seek(pos)
        newline = fh.read(step).rfind(b"\n")
        if newline >= 0:
            cut = pos + newline + 1
            break
    fh.truncate(cut)
    warnings.warn(f"{path}: truncated final line of {end - cut} bytes (a writer "
                  f"was killed mid-append)", RuntimeWarning, stacklevel=3)


class RecordLog:
    """Append-only, checksummed record log (thread-safe)."""

    def __init__(self, path: str | Path, sync: str = "always") -> None:
        if sync not in WAL_SYNC_MODES:
            raise ValueError(
                f"unknown WAL sync mode {sync!r} (use one of {WAL_SYNC_MODES})"
            )
        self.path = Path(path)
        self.sync_mode = sync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a+b")
        _truncate_torn_tail(self._fh, self.path)
        self.appended = 0
        self.bytes_written = 0

    def append(self, record: dict) -> None:
        """Append one record, flushed (and fsync'd under ``"always"``)."""
        data = encode(record)
        with self._lock:
            if self._fh.closed:
                raise WALError(f"{self.path}: log is closed")
            self._fh.write(data)
            self._fh.flush()
            if self.sync_mode == "always":
                os.fsync(self._fh.fileno())
            self.appended += 1
            self.bytes_written += len(data)

    def sync(self) -> None:
        """Force an fsync (the group-commit point for ``sync="batch"``)."""
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                if self.sync_mode != "off":
                    os.fsync(self._fh.fileno())

    def close(self) -> None:
        self.sync()
        with self._lock:
            self._fh.close()

    def rewrite(self, records) -> None:
        """Atomically replace the whole log with ``records`` (fsync'd);
        appends continue on the new file."""
        data = b"".join(map(encode, records))
        with self._lock:
            if not self._fh.closed:
                self._fh.close()
            atomic_write(self.path, data, fsync=True)
            self._fh = open(self.path, "ab")
