"""The run manifest: ``manifest.json`` makes a sweep directory self-describing.

``_SweepRunner`` writes it atomically at start — the header and a
``pending`` row per point — and at end or drain, adding the stats and the
sweep-level metrics snapshot.  The per-point ledger lives in the
checksummed :mod:`repro.engine.wal` log ``results.jsonl`` beside the
manifest: :meth:`RunManifest.load` folds it over the rows, the last record
per key winning, as ``serve.wal.fold_records`` folds the WAL.  So even a
killed sweep's directory is resumable-by-inspection: the ledger says which
points are ``ok`` (served from cache on re-run) and which still owe an
execution.

Schema (``MANIFEST_SCHEMA``)::

    {
      "schema": "repro.sweep-manifest/1",
      "created_at": <unix seconds>,
      "updated_at": <unix seconds>,
      "code_version": "<16-hex digest>",
      "git_sha": "<40-hex>" | null,
      "host": {"platform", "python", "hostname"},
      "config": {<EngineConfig fields that shape execution>},
      "parameter": "n",
      "points": {                                   # folded on load
        "<key>": {"kind", "params", "status", "attempts",
                   "cached", "wall_time_s"}
      },
      "metrics": {<sweep-level MetricsRegistry snapshot>},
      "stats": {<final SweepResult.stats>}          # present once finished
    }

:func:`validate_manifest` checks an arbitrary dict against this schema and
returns the list of problems (empty == valid); the CI end-to-end step and
the report loader both go through it.
"""

from __future__ import annotations

import functools
import json
import platform
import socket
import subprocess
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = ["MANIFEST_NAME", "MANIFEST_SCHEMA", "RunManifest", "validate_manifest"]

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = "repro.sweep-manifest/1"

#: Ledger statuses mirror the engine's run taxonomy plus "pending".
_LEDGER_STATUSES = ("pending", "ok", "error", "timeout", "skipped")


@functools.lru_cache(maxsize=None)
def _git_sha() -> str | None:
    """Best-effort commit id of the source tree; None outside a checkout.

    Asked once per process: every sweep writes a manifest, and the
    subprocess would otherwise be the costliest part of a small sweep."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) == 40 else None


def _host_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "hostname": socket.gethostname(),
    }


def _ledger_row(run) -> dict:
    """The ledger row of a finished :class:`~repro.analysis.results.RunResult`."""
    return {
        "kind": run.kind,
        "params": dict(run.params),
        "status": run.status,
        "attempts": (run.error or {}).get("attempts", 1 if run.ok else 0),
        "cached": run.cached,
        "wall_time_s": run.wall_time_s,
    }


class RunManifest:
    """The run-level manifest of one sweep directory.

    Re-running a sweep into the same directory *merges*: the header is
    refreshed, the earlier run's ledger (folded by :meth:`load`) is kept,
    and re-seen keys not ``ok`` go back to ``pending`` — matching the
    append-mode JSONL checkpoint, where the last record per key wins.
    """

    def __init__(self, sweep_dir: str | Path) -> None:
        from repro.engine.keys import code_version

        self.dir = Path(sweep_dir).expanduser()
        self.path = self.dir / MANIFEST_NAME
        existing = self.load(self.path) if self.path.is_file() else None
        now = time.time()
        self.data: dict = {
            "schema": MANIFEST_SCHEMA,
            "created_at": existing["created_at"] if existing else now,
            "updated_at": now,
            "code_version": code_version(),
            "git_sha": _git_sha(),
            "host": _host_info(),
            "config": {},
            "parameter": None,
            "points": dict(existing["points"]) if existing else {},
            "metrics": {},
        }

    # -- lifecycle ------------------------------------------------------ #
    def start(self, config: Mapping[str, Any], parameter: str,
              points: Iterable[tuple[Any, str]]) -> None:
        """Record the run header and a pending ledger row per (point, key)."""
        self.data["config"] = dict(config)
        self.data["parameter"] = parameter
        for point, key in points:
            entry = self.data["points"].get(key)
            if entry is None or entry.get("status") != "ok":
                self.data["points"][key] = {
                    "kind": point.kind,
                    "params": dict(point.params),
                    "status": "pending",
                    "attempts": 0,
                    "cached": False,
                    "wall_time_s": 0.0,
                }
        self.write()

    def finish(self, stats: Mapping[str, float], metrics: Mapping) -> None:
        """Attach the final sweep statistics and metrics snapshot."""
        self.data["stats"] = dict(stats)
        self.data["metrics"] = dict(metrics)
        self.write()

    # -- persistence ---------------------------------------------------- #
    def write(self) -> None:
        """Atomic rewrite: a crashed sweep never leaves a torn manifest."""
        from repro.engine.wal import atomic_write

        self.data["updated_at"] = time.time()
        # one-shot compact dumps runs json's C encoder (json.dump and
        # indent both force the pure-Python one)
        atomic_write(self.path, json.dumps(self.data, sort_keys=True).encode("utf-8"))

    @staticmethod
    def load(path: str | Path) -> dict:
        """Read and validate a manifest (ValueError when invalid), folding
        the ``results.jsonl`` beside it into the ledger rows it already
        has (so a moved or copied sweep dir folds its own log)."""
        from repro.engine.core import load_results_jsonl

        path = Path(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        problems = validate_manifest(data)
        if problems:
            raise ValueError(
                f"{path}: invalid sweep manifest: " + "; ".join(problems)
            )
        stream = path.parent / "results.jsonl"
        if stream.is_file():
            points = data["points"]
            for run in load_results_jsonl(stream):
                if run.key in points:
                    points[run.key] = _ledger_row(run)
        return data


def validate_manifest(data: Any) -> list[str]:
    """Schema check; returns the list of problems (empty means valid)."""
    problems: list[str] = []
    if not isinstance(data, dict):
        return [f"manifest must be a JSON object, got {type(data).__name__}"]
    if data.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema must be {MANIFEST_SCHEMA!r}, got {data.get('schema')!r}"
        )
    for field, types in (
        ("created_at", (int, float)),
        ("updated_at", (int, float)),
        ("code_version", str),
        ("host", dict),
        ("config", dict),
        ("points", dict),
        ("metrics", dict),
    ):
        if field not in data:
            problems.append(f"missing field {field!r}")
        elif not isinstance(data[field], types):
            problems.append(f"field {field!r} has wrong type")
    if "git_sha" in data and data["git_sha"] is not None:
        if not isinstance(data["git_sha"], str):
            problems.append("field 'git_sha' must be a string or null")
    for key, entry in (data.get("points") or {}).items():
        if not isinstance(entry, dict):
            problems.append(f"ledger entry {key!r} is not an object")
            continue
        for field in ("kind", "params", "status", "attempts", "cached",
                      "wall_time_s"):
            if field not in entry:
                problems.append(f"ledger entry {key!r} missing {field!r}")
        status = entry.get("status")
        if status is not None and status not in _LEDGER_STATUSES:
            problems.append(
                f"ledger entry {key!r} has unknown status {status!r}"
            )
    return problems
