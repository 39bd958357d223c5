"""The serve daemon's write-ahead job log.

Every job the daemon *accepts asynchronously* is recorded here before the
client gets its 202 — the WAL is the durability contract behind the
"zero lost, zero duplicated" guarantee.  On restart the daemon replays
the log: jobs with a terminal record are answerable immediately, jobs
without one go back on the queue exactly once.

The framing, reader, sync modes and torn-tail repair are the engine's
one record log (:mod:`repro.engine.wal`), which sweeps' ``results.jsonl``
shares; this module holds what only the daemon needs.  Every record
carries a ``type``:

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

from repro.engine.wal import RecordLog, iter_records

__all__ = ["KEEP_TERMINAL", "WriteAheadLog", "fold_records"]

#: Terminal jobs a compaction keeps on disk, and the daemon in memory.
KEEP_TERMINAL = 10_000


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


class WriteAheadLog(RecordLog):
    """The daemon's job log: a :class:`~repro.engine.wal.RecordLog` that
    replays into a ledger and compacts from one."""

    def replay(self, strict: bool = True) -> dict[str, dict]:
        """The folded ledger of everything currently in the log."""
        return fold_records(iter_records(self.path, strict=strict))

    def compact(self, ledger: dict[str, dict], keep_terminal: int | None = None) -> int:
        """Atomically rewrite the log from a folded ledger.

        Pending (and coalesced-pending) jobs keep their full record
        chains; terminal jobs keep ``submit`` + terminal record, oldest
        terminal jobs beyond ``keep_terminal`` (default
        :data:`KEEP_TERMINAL`) are dropped entirely.
        Returns the number of jobs written.  Appends continue on the new
        file, so the log object stays usable.
        """
        terminal = sorted(
            (entry["job"].get("submitted_at", 0.0), jid)
            for jid, entry in ledger.items()
            if entry["status"] != "pending"
        )
        keep = KEEP_TERMINAL if keep_terminal is None else keep_terminal
        dropped = {jid for _, jid in terminal[: max(0, len(terminal) - keep)]}
        records = []
        for jid, entry in ledger.items():
            if jid in dropped:
                continue
            records.append(entry["job"])
            if entry.get("coalesced_into"):
                records.append(
                    {"type": "coalesce", "id": jid, "into": entry["coalesced_into"]}
                )
            if entry["status"] == "done":
                records.append({"type": "done", "id": jid, "result": entry["result"]})
            elif entry["status"] == "cancelled":
                records.append({"type": "cancel", "id": jid})
        self.rewrite(records)
        return len(ledger) - len(dropped)
