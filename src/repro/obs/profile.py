"""Per-point profiling artifacts (``EngineConfig.profile``).

Three modes:

``off``
    No instrumentation, no artifacts (the default).
``cprofile``
    The point runs under :mod:`cProfile`; the binary stats land in
    ``profiles/<key>.pstats`` (load with :mod:`pstats`).
``tracemalloc``
    The point runs under :mod:`tracemalloc`; the top allocation sites and
    the peak traced size land in ``profiles/<key>.tracemalloc.txt``.

Artifacts are written *inside the executing process* (worker or not) into
the ``profiles/`` directory next to the sweep's JSONL checkpoint; file
names are content-addressed by point key, so concurrent workers never
contend and a retry simply overwrites its predecessor's artifact.  A
point's wall time is not a profile: ``results.jsonl`` already records it
as ``wall_time_s``.
"""

from __future__ import annotations

import cProfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

__all__ = ["PROFILE_MODES", "PROFILE_SUBDIR", "profile_point", "artifact_path"]

PROFILE_MODES = ("off", "cprofile", "tracemalloc")
PROFILE_SUBDIR = "profiles"

_SUFFIX = {
    "cprofile": ".pstats",
    "tracemalloc": ".tracemalloc.txt",
}


def artifact_path(profile_dir: str | Path, key: str, mode: str) -> Path:
    """Where one point's artifact lives: ``<dir>/<key><mode suffix>``."""
    return Path(profile_dir) / f"{key}{_SUFFIX[mode]}"


@contextmanager
def profile_point(spec: dict | None):
    """Instrument one point execution per a profile spec.

    ``spec`` is ``None`` (or mode "off") for a plain run, else
    ``{"mode": ..., "dir": ..., "key": ...}`` — the picklable form the
    engine sends across the worker boundary.
    """
    if spec is None or spec.get("mode", "off") == "off":
        yield
        return
    mode = spec["mode"]
    if mode not in PROFILE_MODES:
        raise ValueError(f"unknown profile mode {mode!r} (use {PROFILE_MODES})")
    dest_dir = Path(spec["dir"])
    dest_dir.mkdir(parents=True, exist_ok=True)
    dest = artifact_path(dest_dir, spec["key"], mode)

    if mode == "cprofile":
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            profiler.dump_stats(dest)
    else:  # tracemalloc
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start(10)
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            snapshot = tracemalloc.take_snapshot()
            _cur, peak = tracemalloc.get_traced_memory()
            if started:
                tracemalloc.stop()
            top = snapshot.statistics("lineno")[:20]
            lines = [f"peak_traced_bytes: {peak}", "top allocation sites:"]
            lines += [f"  {stat}" for stat in top]
            dest.write_text("\n".join(lines) + "\n", encoding="utf-8")
