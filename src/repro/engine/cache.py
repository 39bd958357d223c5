"""Persistent, content-addressed result cache.

Layout (see ``docs/engine.md``): one JSON file per result under a
two-character shard directory derived from the key::

    <cache_dir>/<key[:2]>/<key>.json

Writes are atomic (:func:`repro.engine.wal.atomic_write`) so a crashed or
concurrent sweep can never leave a truncated entry behind.  A corrupt entry
still reads as a miss, but it is never silently discarded: :meth:`ResultCache.get`
moves it to ``<cache_dir>/quarantine/`` for post-mortem inspection and
reports it through the ``on_corrupt`` callback (the engine counts it as
the ``engine.cache.corrupt`` metric).  :meth:`ResultCache.verify`
scans every shard for corrupt entries and orphaned ``.tmp`` files —
exposed on the command line as ``repro cache verify`` (``--repair``
quarantines the corrupt entries and prunes the orphans via
:meth:`ResultCache.repair`).

Size budget
-----------
A long-lived consumer (the serve daemon runs for days) cannot let the
cache grow without bound, so ``max_bytes`` installs a budget: when a
write pushes the total entry size over it, least-recently-used entries
are evicted until the cache fits again.  Recency is the entry file's
mtime — :meth:`get` touches the file on every hit, so eviction order is
true LRU at filesystem-timestamp granularity.  The running total is
approximate under concurrent writers (each process tracks its own
increments and rescans when it thinks the budget is exceeded), which can
only delay an eviction, never corrupt an entry.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable

from repro.engine.wal import atomic_write

__all__ = ["ResultCache"]

_QUARANTINE = "quarantine"


class ResultCache:
    """On-disk JSON store keyed by content-addressed hex digests."""

    def __init__(
        self,
        cache_dir: str | Path,
        on_corrupt: Callable[[str, Path], None] | None = None,
        max_bytes: int | None = None,
        on_evict: Callable[[str], None] | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.dir = Path(cache_dir).expanduser()
        self.dir.mkdir(parents=True, exist_ok=True)
        self.on_corrupt = on_corrupt
        self.on_evict = on_evict
        self.max_bytes = max_bytes
        self._approx_bytes: int | None = None  # lazily initialized by put()

    def _path(self, key: str) -> Path:
        return self.dir / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> Path | None:
        """Move a corrupt file aside; returns its new location.

        Concurrency-safe: the destination name is *reserved* with an
        exclusive create (``O_CREAT | O_EXCL``) before the rename, so two
        processes quarantining simultaneously can never pick the same
        name and overwrite each other's evidence (the probe-then-rename
        race the old ``while dest.exists()`` loop had).  Returns ``None``
        when another process moved the corrupt file away first — the
        caller treats that as an ordinary miss.
        """
        qdir = self.dir / _QUARANTINE
        qdir.mkdir(parents=True, exist_ok=True)
        serial = 0
        while True:
            name = path.name if serial == 0 else f"{path.name}.{serial}"
            dest = qdir / name
            try:
                fd = os.open(dest, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                serial += 1
                continue
            os.close(fd)
            try:
                # replace onto our own reservation: atomic, never clobbers
                # a name another process holds
                os.replace(path, dest)
            except FileNotFoundError:
                # lost the race for the *source*: someone else already
                # quarantined it — release the reservation
                os.unlink(dest)
                return None
            return dest

    def get(self, key: str) -> dict | None:
        """Return the stored payload, or None on a miss.

        A corrupt entry is quarantined (not overwritten blind), reported
        via ``on_corrupt``, and treated as a miss.
        """
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if self.max_bytes is not None:
                try:
                    os.utime(path)  # mark recency for LRU eviction
                except OSError:
                    pass
            return payload
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            dest = self._quarantine(path)
            if dest is not None and self.on_corrupt is not None:
                self.on_corrupt(key, dest)
            return None

    def put(self, key: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``key``; enforce the budget."""
        path = self._path(key)
        # one-shot dumps runs json's C encoder (json.dump streams through
        # the pure-Python one); the bytes are the same
        atomic_write(path, json.dumps(payload, sort_keys=True).encode("utf-8"))
        if self.max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                try:
                    self._approx_bytes += path.stat().st_size
                except OSError:
                    pass
            if self._approx_bytes > self.max_bytes:
                self.enforce_budget()

    # -- size budget ----------------------------------------------------- #
    def total_bytes(self) -> int:
        """Exact total size of every entry file (shards only)."""
        total = 0
        for path in self.dir.glob("??/*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def enforce_budget(self) -> list[str]:
        """Evict least-recently-used entries until the cache fits.

        No-op without a ``max_bytes`` budget.  Returns the evicted keys
        (oldest first).  Safe under concurrency: an entry another process
        removed first is simply skipped.
        """
        if self.max_bytes is None:
            return []
        entries = []
        total = 0
        for path in self.dir.glob("??/*.json"):
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        evicted: list[str] = []
        if total > self.max_bytes:
            for _mtime, size, path in sorted(entries):
                if total <= self.max_bytes:
                    break
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
                total -= size
                key = path.stem
                evicted.append(key)
                if self.on_evict is not None:
                    self.on_evict(key)
        self._approx_bytes = total
        return evicted

    def verify(self) -> dict:
        """Scan every shard; report corrupt entries and orphaned temp files.

        Returns ``{"entries", "corrupt", "orphaned_tmp", "quarantined",
        "ok"}`` where ``corrupt`` / ``orphaned_tmp`` list offending paths
        (as strings) and ``ok`` is True when both are empty.  Read-only:
        nothing is moved or deleted — pass the corrupt keys back through
        :meth:`get` to quarantine them, or remove the listed files.
        """
        entries = 0
        corrupt: list[str] = []
        orphaned: list[str] = []
        for path in sorted(self.dir.glob("??/*")):
            if path.suffix == ".json":
                entries += 1
                try:
                    json.loads(path.read_text(encoding="utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    corrupt.append(str(path))
            elif path.suffix == ".tmp":
                orphaned.append(str(path))
        quarantined = sum(1 for _ in (self.dir / _QUARANTINE).glob("*")) \
            if (self.dir / _QUARANTINE).is_dir() else 0
        return {
            "entries": entries,
            "corrupt": corrupt,
            "orphaned_tmp": orphaned,
            "quarantined": quarantined,
            "ok": not corrupt and not orphaned,
        }

    def repair(self) -> dict:
        """Quarantine every corrupt entry and delete orphaned temp files.

        The mutating counterpart of :meth:`verify`: corrupt entries move
        to ``quarantine/`` (never deleted — they are evidence), orphaned
        ``.tmp`` files are removed outright.  Returns the :meth:`verify`
        report taken *before* repairing, extended with ``repaired``
        (``{"quarantined": [...], "removed_tmp": [...]}``) so callers can
        tell what was found from what was done — ``repro cache verify
        --repair`` exits non-zero whenever corruption was found, repaired
        or not.
        """
        report = self.verify()
        quarantined: list[str] = []
        removed: list[str] = []
        for spath in report["corrupt"]:
            path = Path(spath)
            dest = self._quarantine(path)
            if dest is not None:
                quarantined.append(str(dest))
                if self.on_corrupt is not None:
                    self.on_corrupt(path.stem, dest)
        for spath in report["orphaned_tmp"]:
            try:
                Path(spath).unlink()
                removed.append(spath)
            except FileNotFoundError:
                pass
        report["repaired"] = {"quarantined": quarantined, "removed_tmp": removed}
        return report

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.dir.glob("??/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.dir.glob("??/*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
