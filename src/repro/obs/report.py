"""The ``repro report <sweep-dir>`` dashboard.

A sweep directory (anything the engine wrote a JSONL checkpoint and a
``manifest.json`` into) is rendered as a Markdown/ASCII dashboard:

* run header — code version, git SHA, host, engine config;
* measured-vs-bound table with the fitted exponent;
* leading constants — per-algorithm fits of c in c·n^ω₀/M^(ω₀/2−1)
  (:mod:`repro.bounds.constants`), the Smith et al. 2n³/√M classical
  reference line, and the hybrid cutoff-crossover table;
* cache behaviour — engine result-cache hits/misses/corrupt, LRU
  simulator hit rate — sourced from :class:`~repro.obs.metrics.
  MetricsRegistry` snapshots, not ad-hoc dicts;
* retry/timeout/error taxonomy of every permanent failure;
* the top-k slowest points;
* profiling artifacts present under ``profiles/``.

:func:`build_report` produces the machine-readable dict (``--json``);
:func:`render_report` turns it into the human dashboard.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.manifest import MANIFEST_NAME, RunManifest
from repro.obs.metrics import merge_metric_dicts

__all__ = ["build_report", "render_report", "load_sweep_runs"]


def load_sweep_runs(sweep_dir: str | Path) -> list:
    """Load every RunResult checkpointed under a sweep directory.

    All ``*.jsonl`` files are read; records are de-duplicated by key with
    the *last* occurrence winning — append-mode checkpoints record
    re-runs (and resumes) later in the stream, and the last record is the
    one the cache and the manifest agree with.
    """
    from repro.engine.core import load_results_jsonl

    sweep_dir = Path(sweep_dir)
    by_key: dict[str, object] = {}
    for path in sorted(sweep_dir.glob("*.jsonl")):
        for run in load_results_jsonl(path):
            by_key[run.key] = run
    return list(by_key.values())


def _reference(runs: list) -> tuple[str | None, float | None]:
    """(algorithm label, reference ω₀) of a sweep, when unambiguous.

    Derived from the runs' own ``alg`` params — every algorithm is
    compared against its own ω₀ = 3·log_{nmp} t (the report used to show
    nothing, and the CLI hardcoded Strassen's log₂7 for every sweep).
    Mixed-algorithm or algorithm-free directories report no reference.
    """
    specs: dict[str, object] = {}
    for r in runs:
        if r.kind in ("seq_io", "parallel_comm") and "alg" in r.params:
            spec = r.params["alg"]
            specs[json.dumps(spec, sort_keys=True)] = spec
    if len(specs) != 1:
        return None, None
    (spec,) = specs.values()
    try:
        from repro.engine.runners import reference_exponent

        label, omega = reference_exponent(spec)
    except Exception:
        return None, None
    return label, float(omega)


def _fit(runs: list, parameter: str) -> dict:
    """Exponent fit over the ok runs; tolerant of unfittable sweeps."""
    from repro.analysis.fitting import sweep_from_runs

    ok_runs = [r for r in runs if r.ok]
    label, omega = _reference(ok_runs)
    sweep = sweep_from_runs(ok_runs, parameter=parameter, missing="fail")
    out: dict = {
        "parameter": parameter,
        "fitted_points": len(sweep.points),
        "exponent": None,
        "algorithm": label,
        "reference_omega0": omega,
    }
    if len(sweep.points) >= 2 and len({p.x for p in sweep.points}) >= 2:
        try:
            out["exponent"] = float(sweep.exponent)
        except Exception:
            pass
    out["points"] = [
        {
            "x": p.x,
            "measured": p.measured,
            "bound": p.bound,
            "ratio": (p.measured / p.bound) if p.bound else None,
            "wall_time_s": p.run.wall_time_s if p.run else None,
            "cached": p.run.cached if p.run else None,
        }
        for p in sweep.points
    ]
    return out


def _constants(runs: list) -> dict:
    """Leading-constant fits and the hybrid cutoff-crossover table.

    Fits group the ok seq_io runs by algorithm: each group's c is fitted
    in measured ≈ c·n_eff^ω₀/M^(ω₀/2−1) with the group's own reference
    exponent (classical groups use ω₀ = 3 and carry Smith et al.'s
    reference constant 2 — arXiv:1702.02017).  Hybrid-kind runs are
    instead grouped by (n_eff, M) into the crossover table: I/O per
    cutoff level, minimum marked.
    """
    from repro.bounds.constants import (
        SMITH_CLASSICAL_CONSTANT,
        constant_within,
        fit_leading_constant,
    )

    groups: dict[str, dict] = {}
    crossover: dict[tuple, dict] = {}
    for r in runs:
        if not r.ok or "M" not in r.params:
            continue
        if r.kind == "hybrid" and "cutoff" in r.params:
            m = r.metrics
            if "io" not in m:
                continue
            key = (float(m.get("n_eff", r.params.get("n", 0))), float(r.params["M"]))
            slot = crossover.setdefault(key, {})
            slot[int(r.params["cutoff"])] = float(m["io"])
            continue
        if r.kind != "seq_io" or "io" not in r.metrics:
            continue
        spec = r.params.get("alg")
        if spec in (None, "classical"):
            label, omega = "classical", 3.0
        else:
            try:
                from repro.engine.runners import reference_exponent

                label, omega = reference_exponent(spec)
            except Exception:
                continue
        g = groups.setdefault(label, {"omega0": float(omega), "points": []})
        g["points"].append(
            (
                float(r.metrics.get("n_eff", r.params.get("n", 0))),
                float(r.params["M"]),
                float(r.metrics["io"]),
            )
        )

    fits = []
    for label in sorted(groups):
        g = groups[label]
        try:
            fit = fit_leading_constant(
                [p[0] for p in g["points"]],
                [p[1] for p in g["points"]],
                [p[2] for p in g["points"]],
                g["omega0"],
            )
        except ValueError:
            continue
        reference = SMITH_CLASSICAL_CONSTANT if label == "classical" else None
        fits.append(
            {
                "algorithm": label,
                "omega0": g["omega0"],
                "points": len(g["points"]),
                "constant": fit.constant,
                "spread": fit.spread,
                "reference": reference,
                "within_tol": (
                    constant_within(fit, reference) if reference else None
                ),
            }
        )

    rows = []
    for (n_eff, M) in sorted(crossover):
        ios = crossover[(n_eff, M)]
        best = min(ios, key=ios.get)
        for cutoff in sorted(ios):
            rows.append(
                {
                    "n_eff": n_eff,
                    "M": M,
                    "cutoff": cutoff,
                    "io": ios[cutoff],
                    "best": cutoff == best,
                }
            )
    return {"fits": fits, "crossover": rows}


def _rate(hits: float, misses: float) -> float | None:
    total = hits + misses
    return (hits / total) if total else None


#: ledger status of a serve job by its WAL state; a ``done`` job reads as
#: its result's status
_WAL_LEDGER = {"pending": "pending", "cancelled": "skipped"}


def _ledger(sweep_dir: Path, manifest: dict | None) -> dict | None:
    """Status counts of the per-point ledger.

    A sweep's ledger is its manifest's, folded from the checkpoint stream
    on load; a serve directory's is the daemon's job ledger, folded from
    its WAL.
    """
    if manifest is None:
        return None
    if manifest.get("parameter") == "serve":
        from repro.engine.wal import iter_records
        from repro.serve.daemon import WAL_NAME
        from repro.serve.wal import fold_records

        jobs = fold_records(iter_records(sweep_dir / WAL_NAME, strict=False))
        statuses = [
            _WAL_LEDGER.get(e["status"]) or (e["result"] or {}).get("status", "ok")
            for e in jobs.values()
        ]
    else:
        statuses = [e.get("status") for e in manifest["points"].values()]
    return {
        status: statuses.count(status)
        for status in ("ok", "pending", "error", "timeout", "skipped")
    }


def build_report(sweep_dir: str | Path, top: int = 5) -> dict:
    """Assemble the machine-readable report for one sweep directory."""
    sweep_dir = Path(sweep_dir)
    manifest_path = sweep_dir / MANIFEST_NAME
    manifest = RunManifest.load(manifest_path) if manifest_path.is_file() else None
    runs = load_sweep_runs(sweep_dir)
    if manifest is None and not runs:
        raise FileNotFoundError(
            f"{sweep_dir}: no {MANIFEST_NAME} and no *.jsonl checkpoints — "
            "not a sweep directory"
        )

    parameter = (manifest or {}).get("parameter") or "n"
    sweep_metrics = (manifest or {}).get("metrics") or {}
    point_metrics = merge_metric_dicts(
        [r.trace.get("metrics", {}) for r in runs if isinstance(r.trace, dict)]
    )
    counters = sweep_metrics.get("counters", {})
    lru = point_metrics.get("counters", {})

    # failure taxonomy: status and error-type histograms over non-ok runs
    failures = [r for r in runs if not r.ok]
    by_status: dict[str, int] = {}
    by_error: dict[str, int] = {}
    for run in failures:
        by_status[run.status] = by_status.get(run.status, 0) + 1
        etype = (run.error or {}).get("type", "unknown")
        by_error[etype] = by_error.get(etype, 0) + 1

    executed = [r for r in runs if r.ok and not r.cached]
    slowest = sorted(executed, key=lambda r: r.wall_time_s, reverse=True)[:top]

    # serving: present only for directories written by the serve daemon
    serve_counters = {k: v for k, v in counters.items() if k.startswith("serve.")}
    serve = None
    if serve_counters:
        stats = (manifest or {}).get("stats") or {}
        breaker = stats.get("breaker") if isinstance(stats.get("breaker"), dict) else {}
        serve = {
            "submitted": serve_counters.get("serve.submitted", 0),
            "accepted": serve_counters.get("serve.accepted", 0),
            "rejected": serve_counters.get("serve.rejected", 0),
            "coalesced": serve_counters.get("serve.coalesced", 0),
            "resubmitted": serve_counters.get("serve.resubmitted", 0),
            "cache_hits_mem": serve_counters.get("serve.cache.hit.mem", 0),
            "cache_hits_disk": serve_counters.get("serve.cache.hit.disk", 0),
            "jobs_done": serve_counters.get("serve.jobs.done", 0),
            "jobs_failed": serve_counters.get("serve.jobs.failed", 0),
            "jobs_expired": serve_counters.get("serve.jobs.expired", 0),
            "jobs_retried": serve_counters.get("serve.jobs.retried", 0),
            "degraded_executions": serve_counters.get("serve.degraded.executions", 0),
            "pool_broken": counters.get("engine.pool.broken", 0),
            "pool_rebuilds": counters.get("engine.pool.rebuilds", 0),
            "wal_replayed": serve_counters.get("serve.wal.replayed", 0),
            "breaker": {
                "state": breaker.get("state"),
                "trips": breaker.get("trips"),
            },
        }

    profiles_dir = sweep_dir / "profiles"
    artifacts = (
        sorted(p.name for p in profiles_dir.iterdir() if p.is_file())
        if profiles_dir.is_dir()
        else []
    )

    return {
        "sweep_dir": str(sweep_dir),
        "manifest": {
            k: manifest.get(k)
            for k in ("schema", "code_version", "git_sha", "host", "config",
                      "created_at", "updated_at")
        }
        if manifest
        else None,
        "ledger": _ledger(sweep_dir, manifest),
        "runs": {
            "total": len(runs),
            "ok": sum(1 for r in runs if r.ok),
            "cached": sum(1 for r in runs if r.ok and r.cached),
            "failed": len(failures),
        },
        # hybrid runs sweep the *cutoff* at fixed n, so they would corrupt
        # an exponent-in-n fit; their home is the Constants section.
        "fit": _fit([r for r in runs if r.kind != "hybrid"], parameter),
        "constants": _constants(runs),
        "cache": {
            "hits": counters.get("engine.cache.hits", 0),
            "misses": counters.get("engine.cache.misses", 0),
            "corrupt": counters.get("engine.cache.corrupt", 0),
            "hit_rate": _rate(
                counters.get("engine.cache.hits", 0),
                counters.get("engine.cache.misses", 0),
            ),
        },
        "lru": {
            "hits": lru.get("machine.lru.hits", 0),
            "misses": lru.get("machine.lru.misses", 0),
            "writebacks": lru.get("machine.lru.writebacks", 0),
            "hit_rate": _rate(
                lru.get("machine.lru.hits", 0), lru.get("machine.lru.misses", 0)
            ),
        },
        "faults": {
            "retries": counters.get("engine.retries", 0),
            "timeouts": counters.get("engine.timeouts", 0),
            "errors": counters.get("engine.errors", 0),
            "pool_rebuilds": counters.get("engine.pool.rebuilds", 0),
            "by_status": by_status,
            "by_error_type": by_error,
        },
        "serve": serve,
        "machine_metrics": point_metrics,
        "slowest": [
            {
                "key": r.key,
                "kind": r.kind,
                "params": r.params,
                "wall_time_s": r.wall_time_s,
            }
            for r in slowest
        ],
        "profiles": {"count": len(artifacts), "artifacts": artifacts},
    }


# --------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------- #
def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or 0 < abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.{digits}g}"
    return str(value)


def render_report(report: dict) -> str:
    """Render the dict from :func:`build_report` as a Markdown dashboard."""
    from repro.analysis.report import text_table

    lines: list[str] = [f"# Sweep report — `{report['sweep_dir']}`", ""]

    man = report.get("manifest")
    if man:
        host = man.get("host") or {}
        lines += [
            "## Run",
            "",
            f"- code version: `{man.get('code_version')}`",
            f"- git SHA: `{man.get('git_sha') or 'unknown'}`",
            f"- host: {host.get('hostname', '?')} "
            f"({host.get('platform', '?')}, python {host.get('python', '?')})",
            f"- engine config: `{json.dumps(man.get('config') or {}, sort_keys=True)}`",
            "",
        ]
        ledger = report.get("ledger") or {}
        lines.append(
            "- ledger: "
            + ", ".join(f"{v} {k}" for k, v in ledger.items() if v) + ""
            if any(ledger.values())
            else "- ledger: empty"
        )
        lines.append("")
    else:
        lines += ["## Run", "", "- no manifest.json (pre-observability sweep)", ""]

    fit = report["fit"]
    lines += [f"## Measured vs bound (parameter: `{fit['parameter']}`)", ""]
    if fit["points"]:
        rows = [
            [
                _fmt(p["x"]),
                _fmt(p["measured"]),
                _fmt(p["bound"]),
                _fmt(p["ratio"]),
                _fmt(p["wall_time_s"]),
                _fmt(p["cached"]),
            ]
            for p in fit["points"]
        ]
        lines.append("```")
        lines.append(
            text_table(
                [fit["parameter"], "measured", "bound", "ratio", "wall s", "cached"],
                rows,
            )
        )
        lines.append("```")
    else:
        lines.append("(no fittable points)")
    exp = fit.get("exponent")
    note = "" if exp is not None else " (needs ≥ 2 distinct x)"
    if exp is not None and fit.get("reference_omega0") is not None:
        note = (
            f" (reference ω₀[{fit['algorithm']}] = "
            f"{_fmt(fit['reference_omega0'])})"
        )
    lines += ["", f"- fitted exponent: **{_fmt(exp)}**{note}", ""]

    constants = report.get("constants") or {}
    if constants.get("fits") or constants.get("crossover"):
        lines += ["## Constants", ""]
        if constants.get("fits"):
            rows = [
                [
                    f["algorithm"],
                    _fmt(f["omega0"]),
                    _fmt(f["points"]),
                    _fmt(f["constant"]),
                    _fmt(f["spread"]),
                    _fmt(f["reference"]),
                    _fmt(f["within_tol"]),
                ]
                for f in constants["fits"]
            ]
            lines.append("```")
            lines.append(
                text_table(
                    ["algorithm", "omega0", "points", "fitted c", "spread",
                     "reference", "within 15%"],
                    rows,
                )
            )
            lines.append("```")
            lines.append("")
        lines.append(
            "- classical reference: Smith et al. 2n^3/sqrt(M) "
            "(arXiv:1702.02017, c = 2)"
        )
        lines.append("")
        if constants.get("crossover"):
            lines += ["### Hybrid crossover (I/O per cutoff)", ""]
            rows = [
                [
                    _fmt(r["n_eff"]),
                    _fmt(r["M"]),
                    _fmt(r["cutoff"]),
                    _fmt(r["io"]),
                    "*" if r["best"] else "",
                ]
                for r in constants["crossover"]
            ]
            lines.append("```")
            lines.append(
                text_table(["n_eff", "M", "cutoff", "io", "best"], rows)
            )
            lines.append("```")
            lines.append("")

    cache = report["cache"]
    lru = report["lru"]
    lines += [
        "## Cache behaviour (MetricsRegistry)",
        "",
        f"- engine result cache: {_fmt(cache['hits'])} hits / "
        f"{_fmt(cache['misses'])} misses / {_fmt(cache['corrupt'])} corrupt"
        f" (hit rate {_fmt(cache['hit_rate'])})",
        f"- LRU simulator: {_fmt(lru['hits'])} hits / {_fmt(lru['misses'])} "
        f"misses / {_fmt(lru['writebacks'])} writebacks"
        f" (hit rate {_fmt(lru['hit_rate'])})",
        "",
    ]

    faults = report["faults"]
    lines += [
        "## Failure taxonomy",
        "",
        f"- retries: {_fmt(faults['retries'])}, timeouts: "
        f"{_fmt(faults['timeouts'])}, errors: {_fmt(faults['errors'])}, "
        f"pool rebuilds: {_fmt(faults['pool_rebuilds'])}",
    ]
    if faults["by_status"]:
        lines.append(
            "- permanent failures: "
            + ", ".join(f"{v} {k}" for k, v in sorted(faults["by_status"].items()))
        )
        lines.append(
            "- error types: "
            + ", ".join(
                f"{v}× {k}" for k, v in sorted(faults["by_error_type"].items())
            )
        )
    else:
        lines.append("- permanent failures: none")
    lines.append("")

    serve = report.get("serve")
    if serve:
        breaker = serve.get("breaker") or {}
        lines += [
            "## Serving (daemon)",
            "",
            f"- admission: {_fmt(serve['submitted'])} submitted, "
            f"{_fmt(serve['accepted'])} accepted, "
            f"{_fmt(serve['rejected'])} rejected (backpressure), "
            f"{_fmt(serve['coalesced'])} coalesced, "
            f"{_fmt(serve['resubmitted'])} idempotent resubmits",
            f"- fast path: {_fmt(serve['cache_hits_mem'])} memory hits, "
            f"{_fmt(serve['cache_hits_disk'])} disk hits",
            f"- outcomes: {_fmt(serve['jobs_done'])} done, "
            f"{_fmt(serve['jobs_failed'])} failed, "
            f"{_fmt(serve['jobs_expired'])} deadline-expired, "
            f"{_fmt(serve['jobs_retried'])} retried",
            f"- resilience: breaker {breaker.get('state') or '?'} "
            f"({_fmt(breaker.get('trips'))} trips), "
            f"{_fmt(serve['degraded_executions'])} degraded serial executions, "
            f"{_fmt(serve['pool_broken'])} pool breaks / "
            f"{_fmt(serve['pool_rebuilds'])} rebuilds, "
            f"{_fmt(serve['wal_replayed'])} WAL-replayed jobs",
            "",
        ]

    if report["slowest"]:
        lines += ["## Slowest points", ""]
        rows = [
            [r["key"][:12], r["kind"], json.dumps(r["params"], sort_keys=True)[:48],
             _fmt(r["wall_time_s"])]
            for r in report["slowest"]
        ]
        lines.append("```")
        lines.append(text_table(["key", "kind", "params", "wall s"], rows))
        lines.append("```")
        lines.append("")

    prof = report["profiles"]
    lines.append(
        f"## Profiles\n\n- {prof['count']} artifact(s) under `profiles/`"
        + (": " + ", ".join(prof["artifacts"][:8]) if prof["artifacts"] else "")
    )
    return "\n".join(lines) + "\n"
