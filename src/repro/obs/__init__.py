"""``repro.obs`` — the unified observability layer.

The paper's evaluation *is* its counting model, so every claim rests on
counters that must be trustworthy and inspectable.  This package is the
single place those counters flow through:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, the typed
  counter/gauge/histogram store that :class:`~repro.machine.sequential.
  SequentialMachine`, :class:`~repro.machine.parallel.BSPMachine`,
  :class:`~repro.machine.cache.LRUCache`, :mod:`repro.pebbling.game`,
  and :mod:`repro.engine.core` all publish into.  One registry is active
  per experiment execution; its snapshot crosses the worker boundary as
  one dict per point (``RunResult.trace["metrics"]``).
* :mod:`repro.obs.manifest` — the ``manifest.json`` written at sweep
  start and end that makes any sweep directory self-describing (code
  version, config, host, git SHA, sweep-level metrics, and a per-point
  status ledger folded from the JSONL checkpoint on load).
* :mod:`repro.obs.profile` — per-point profiling artifacts
  (``EngineConfig.profile = "off" | "cprofile" | "tracemalloc"``)
  written next to the JSONL checkpoint.
* :mod:`repro.obs.report` — the ``repro report <sweep-dir>`` dashboard:
  measured-vs-bound table, exponent fit, cache and LRU statistics,
  failure taxonomy, top-k slowest points; ``--json`` for machines.
* :mod:`repro.obs.atlas` — the ``repro atlas`` schedule atlas: heuristic
  pebbling upper bounds (beam / portfolio / Lemma 2.2 memoized) swept
  over (CDAG family × M × scheduler) and compared against the exhaustive
  optimum and the paper's lower bounds.

The canonical metric names are documented in ``docs/observability.md``.
"""

from repro.obs.manifest import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    RunManifest,
    validate_manifest,
)
from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    collecting,
    merge_metric_dicts,
)
from repro.obs.atlas import ATLAS_PRESETS, atlas_points, build_atlas, render_atlas
from repro.obs.profile import PROFILE_MODES, profile_point
from repro.obs.report import build_report, render_report

__all__ = [
    "MetricsRegistry",
    "active_registry",
    "collecting",
    "merge_metric_dicts",
    "RunManifest",
    "validate_manifest",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "PROFILE_MODES",
    "profile_point",
    "build_report",
    "render_report",
    "ATLAS_PRESETS",
    "atlas_points",
    "build_atlas",
    "render_atlas",
]
