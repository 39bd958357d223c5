"""Command-line interface: ``python -m repro <command>``.

Commands
--------
table1                  print Table I (formulas + provenance)
eval N M P              evaluate every Table I row at a parameter point
figures                 print Figures 1–3 (ASCII renderings)
verify                  run the full lemma-verification audit
sweep N... --M M        measured sequential I/O sweep with exponent fit;
                        ``--hybrid-cutoff L`` switches to the hybrid
                        fast/classical executor (docs/hybrid.md)
recompute               the recomputation study (optimal pebbling)
report DIR              observability dashboard for a sweep directory
atlas                   schedule atlas: searched pebbling upper bounds
                        vs. the exhaustive optimum and the paper's
                        lower bounds (docs/pebbling.md)
cache verify DIR        check every result-cache row's checksum
                        (``--repair`` quarantines corrupt rows; non-zero
                        exit whenever corruption was found)
falsify                 mutation-test the checkers, cross-check the counters
zoo list|validate       the fast-matmul algorithm corpus (docs/zoo.md)
zoo sweep --alg NAME    per-algorithm I/O sweep; fitted exponent is
                        compared against that entry's own measured
                        tolerance gate; ``--hybrid`` sweeps the
                        fast/classical cutoff instead of n
serve                   resilient serving daemon: WAL-backed job queue,
                        backpressure, circuit breaking (docs/serving.md)
serve-drill             chaos-certify a daemon: backpressure, breaker,
                        kill+restart exactly-once

``table1``, ``eval``, ``sweep``, and ``report`` accept ``--json`` for
machine-readable output; ``sweep`` and ``recompute`` run through
:mod:`repro.engine`, so ``--workers``, ``--cache-dir``,
``--sweep-dir``, ``--profile``, and the fault-tolerance flags
``--timeout`` / ``--retries`` / ``--fail-fast`` / ``--keep-going``
are available there.  When points permanently fail, the sweep still
completes (keep-going is the default), survivors are printed/streamed,
and the exit code is non-zero with a failure summary on stderr.

``--sweep-dir DIR`` makes a sweep observable: the checkpoint log
``results.jsonl``, an incremental ``manifest.json``, and any ``--profile``
artifacts all land in DIR, which ``repro report DIR`` then renders (see
``docs/observability.md``).

``sweep``, ``eval``, and ``falsify`` accept ``--backend
{reference,vector,symbolic}`` selecting the Schedule-IR counting backend
(see ``docs/schedule_ir.md``): ``sweep`` routes its points through
:func:`repro.schedule.run` (the symbolic backend reaches n ≥ 4096),
``eval`` appends measured I/O columns next to the Table I bounds, and
``falsify`` restricts the backend cross-check probes to the chosen
backend versus the physical machine.  The engine and backend flags are
defined once on shared argparse parent parsers.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main"]

#: Atlas preset names, mirrored from :data:`repro.obs.atlas.ATLAS_PRESETS`
#: (kept literal so building the parser stays import-light).
ATLAS_CHOICES = ("ci", "full")


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_table1(args) -> int:
    from repro.bounds import format_table1
    from repro.bounds.table1 import TABLE1_ROWS

    if args.json:
        _print_json([row.to_dict() for row in TABLE1_ROWS])
        return 0
    print(format_table1())
    return 0


#: (display name, engine/schedule algorithm reference) pairs the measured
#: eval columns run — the sequential executions of Table I.
_EVAL_MEASURED_ALGS = (
    ("classical (tiled)", None),
    ("Strassen", "strassen"),
    ("Winograd", "winograd"),
    ("Karstadt-Schwartz ABMM", "karstadt_schwartz"),
)


def _measured_seq_io(n: int, M: int, backend: str) -> list[dict]:
    """Measured sequential I/O at (n, M) under one Schedule-IR backend.

    Algorithms whose preconditions (n a power of two, M large enough)
    fail at this point report the error instead of a count.
    """
    from repro import schedule

    rows: list[dict] = []
    for name, alg in _EVAL_MEASURED_ALGS:
        try:
            report = schedule.run(
                schedule.seq_io_schedule(alg, n, M), backend=backend
            )
            rows.append(
                {"algorithm": name, "io": int(report.io),
                 "peak_fast": report.peak_fast}
            )
        except Exception as exc:
            rows.append({"algorithm": name, "error": f"{type(exc).__name__}: {exc}"})
    return rows


def _cmd_eval(args) -> int:
    from repro.analysis.report import text_table
    from repro.bounds import evaluate_table1

    entries = evaluate_table1(args.n, args.M, args.P)
    measured = (
        _measured_seq_io(args.n, args.M, args.backend) if args.backend else None
    )
    if args.json:
        payload = {
            "n": args.n,
            "M": args.M,
            "P": args.P,
            "rows": [entry.to_dict() for entry in entries],
        }
        if measured is not None:
            payload["backend"] = args.backend
            payload["measured"] = measured
        _print_json(payload)
        return 0
    rows = []
    for entry in entries:
        for bound in entry.bounds:
            rows.append([entry.algorithm[:44], bound.expr, bound.value])
    print(f"Table I at n={args.n}, M={args.M}, P={args.P}:")
    print(text_table(["algorithm", "bound", "value"], rows))
    if measured is not None:
        print(f"\nmeasured sequential I/O (backend={args.backend}):")
        mrows = [
            [m["algorithm"], m.get("io", "-"), m.get("peak_fast", "-"),
             m.get("error", "")]
            for m in measured
        ]
        print(text_table(["algorithm", "measured I/O", "peak fast", "note"], mrows))
    return 0


def _cmd_figures(_args) -> int:
    from repro.algorithms import strassen
    from repro.cdag import base_case_cdag, build_recursive_cdag
    from repro.lemmas.lemma311 import lemma311_instance
    from repro.viz.ascii_art import base_cdag_ascii, encoder_ascii, lemma311_ascii

    alg = strassen()
    print(base_cdag_ascii(base_case_cdag(alg)))
    print()
    print(encoder_ascii(alg, "A"))
    print()
    H = build_recursive_cdag(alg, 4)
    print(lemma311_ascii(lemma311_instance(H, 2, H.sub_outputs[2][0], [])))
    return 0


def _cmd_verify(_args) -> int:
    import importlib.util
    from pathlib import Path

    # the audit lives in examples/; run it in-process when available,
    # otherwise fall back to the core checks
    script = Path(__file__).resolve().parents[2] / "examples" / "verify_paper_lemmas.py"
    if script.exists():
        spec = importlib.util.spec_from_file_location("verify_paper_lemmas", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)  # type: ignore[union-attr]
        mod.main()
        return 0
    from repro.algorithms import strassen
    from repro.lemmas import check_lemma31, check_theorem11_sequential

    print(check_lemma31(strassen(), "A"))
    for audit in check_theorem11_sequential(strassen(), n=8, M=4):
        print(audit.schedule_kind, "holds:", audit.per_segment_holds)
    return 0


def _engine_config(args):
    from repro.engine import EngineConfig

    return EngineConfig(
        workers=getattr(args, "workers", 0),
        cache_dir=getattr(args, "cache_dir", None),
        point_timeout_s=getattr(args, "timeout", None),
        max_retries=getattr(args, "retries", 0),
        fail_fast=getattr(args, "fail_fast", False),
        sweep_dir=getattr(args, "sweep_dir", None),
        profile=getattr(args, "profile", "off"),
        cache_max_bytes=getattr(args, "cache_max_bytes", None),
    )


def _report_failures(res) -> int:
    """Summarize a sweep's permanent failures on stderr; non-zero if any."""
    if not res.failures:
        return 0
    by_status: dict[str, int] = {}
    for run in res.failures:
        by_status[run.status] = by_status.get(run.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(by_status.items()))
    print(
        f"sweep: {len(res.failures)} of {int(res.stats['points'])} point(s) "
        f"failed ({summary}); survivors were still computed and checkpointed",
        file=sys.stderr,
    )
    for run in res.failures:
        err = run.error or {}
        print(
            f"  [{run.status}] {run.kind} {run.params} — "
            f"{err.get('type', '?')}: {err.get('message', '')} "
            f"(attempts: {err.get('attempts', '?')})",
            file=sys.stderr,
        )
    return 1


def _fmt_x(x: float):
    return int(x) if float(x).is_integer() else round(float(x), 2)


def _cmd_sweep(args) -> int:
    from repro.analysis.report import text_table
    from repro.engine import run_sweep, seq_io_point
    from repro.engine.runners import hybrid_point, reference_exponent

    alg = None if args.algorithm == "classical" else args.algorithm
    try:
        label, omega = reference_exponent(alg)
    except KeyError as exc:
        print(f"sweep: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        if args.hybrid_cutoff is not None:
            points = [
                hybrid_point(
                    alg, n, args.M, args.hybrid_cutoff,
                    replay=not args.no_replay, leaf=args.leaf,
                    backend=args.backend,
                )
                for n in args.sizes
            ]
        else:
            points = [
                seq_io_point(
                    alg, n, args.M, replay=not args.no_replay,
                    backend=args.backend,
                )
                for n in args.sizes
            ]
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    res = run_sweep(points, _engine_config(args), parameter="n")
    if args.json:
        payload = res.to_dict()
        payload["algorithm"] = label
        payload["reference_omega0"] = omega
        if args.hybrid_cutoff is not None:
            payload["hybrid_cutoff"] = args.hybrid_cutoff
            payload["leaf"] = args.leaf
        if len(res.points) >= 2:
            payload["fitted_exponent"] = float(res.exponent)
        _print_json(payload)
        return _report_failures(res)
    rows = [[_fmt_x(p.x), p.measured, p.bound] for p in res.points]
    print(text_table(["n (eff)", "measured I/O", "Ω floor"], rows))
    if len(res.points) >= 2:
        print(
            f"fitted exponent: {res.exponent:.3f} "
            f"(ω₀[{label}] = {omega:.3f})"
        )
    if res.stats.get("cache_hits"):
        print(
            f"cache: {res.stats['cache_hits']:.0f} hits / "
            f"{res.stats['cache_misses']:.0f} misses"
        )
    return _report_failures(res)


# --------------------------------------------------------------------- #
# the algorithm zoo
# --------------------------------------------------------------------- #
def _cmd_zoo_list(args) -> int:
    from repro.analysis.report import text_table
    from repro.zoo import load_entry, omega0_table

    rows = omega0_table()
    if args.json:
        _print_json(rows)
        return 0
    table = [
        [
            r["name"],
            f"<{r['n']},{r['m']},{r['p']};{r['t']}>",
            f"{r['omega0']:.4f}",
            "yes" if r["square"] else "no",
            load_entry(r["name"]).provenance[:56],
        ]
        for r in rows
    ]
    print(text_table(["name", "signature", "omega0", "square", "provenance"], table))
    return 0


def _cmd_zoo_validate(args) -> int:
    from repro.analysis.report import text_table
    from repro.zoo import validate_corpus

    reports = validate_corpus()
    ok = all(r["ok"] for r in reports) and bool(reports)
    if args.json:
        _print_json({"ok": ok, "entries": reports})
        return 0 if ok else 1
    rows = [
        [
            r["name"],
            "ok" if r["ok"] else "INVALID",
            r.get("signature", "-"),
            r.get("error", ""),
        ]
        for r in reports
    ]
    print(text_table(["name", "brent", "signature", "error"], rows))
    print("OK" if ok else "CORPUS VALIDATION FAILED")
    return 0 if ok else 1


def _zoo_default_sizes(alg, points: int) -> list[int]:
    """Default sweep grid: ``points`` consecutive powers of the base row
    dimension, starting where the problem side first clears ~32 (shallow
    grids sit in the pre-asymptotic regime and overshoot the fit)."""
    import math

    L0 = max(3, math.ceil(math.log(32) / math.log(alg.n)))
    return [alg.n**L for L in range(L0, L0 + points)]


def _cmd_zoo_sweep(args) -> int:
    from repro.analysis.report import text_table
    from repro.engine import run_sweep, seq_io_point
    from repro.zoo import corpus_names, load_algorithm, sweep_tolerance

    if args.alg not in corpus_names():
        known = ", ".join(corpus_names())
        print(f"zoo sweep: no corpus entry {args.alg!r} (known: {known})",
              file=sys.stderr)
        return 2
    alg = load_algorithm(args.alg)
    sizes = args.sizes or _zoo_default_sizes(alg, args.points)
    backend = args.backend or "symbolic"
    if args.hybrid:
        return _zoo_hybrid_sweep(args, alg, max(sizes), backend)
    tolerance = (
        args.tolerance if args.tolerance is not None else sweep_tolerance(args.alg)
    )
    tolerance_source = "cli" if args.tolerance is not None else "per-algorithm"
    specs = [
        seq_io_point(args.alg, n, args.M, backend=backend) for n in sizes
    ]
    res = run_sweep(specs, _engine_config(args), parameter="n")
    fitted = float(res.exponent) if len(res.points) >= 2 else None
    diff = abs(fitted - alg.omega0) if fitted is not None else None
    within = diff is not None and diff <= tolerance
    if args.json:
        payload = res.to_dict()
        payload.update(
            {
                "algorithm": args.alg,
                "signature": alg.signature(),
                "reference_omega0": alg.omega0,
                "fitted_exponent": fitted,
                "exponent_diff": diff,
                "tolerance": tolerance,
                "tolerance_source": tolerance_source,
                "within_tolerance": within,
            }
        )
        _print_json(payload)
    else:
        rows = [[_fmt_x(p.x), p.measured, p.bound] for p in res.points]
        print(f"{args.alg} {alg.signature()} sweep (backend={backend}, "
              f"M={args.M}):")
        print(text_table(["n (eff)", "measured I/O", "Ω floor"], rows))
        if fitted is not None:
            print(
                f"fitted exponent: {fitted:.4f} vs ω₀ = {alg.omega0:.4f} "
                f"(diff {diff:.4f}, tolerance {tolerance} "
                f"[{tolerance_source}])"
            )
            print("WITHIN TOLERANCE" if within else "EXPONENT MISMATCH")
    rc = _report_failures(res)
    if rc:
        return rc
    return 0 if within else 1


def _zoo_hybrid_sweep(args, alg, n: int, backend: str) -> int:
    """``zoo sweep --hybrid``: cutoff sweep 0..depth at the largest size.

    Holds (alg, n, M, leaf) fixed and sweeps the fast/classical cutoff ℓ,
    printing the I/O per cutoff with the minimiser marked — the CLI view
    of the hybrid crossover region (docs/hybrid.md).
    """
    from repro.analysis.report import text_table
    from repro.engine import hybrid_point, run_sweep
    from repro.execution.hybrid import hybrid_depth

    depth = hybrid_depth(alg, n, args.M)
    try:
        specs = [
            hybrid_point(args.alg, n, args.M, cutoff, leaf=args.leaf,
                         backend=backend)
            for cutoff in range(depth + 1)
        ]
    except ValueError as exc:
        print(f"zoo sweep: {exc}", file=sys.stderr)
        return 2
    res = run_sweep(specs, _engine_config(args), parameter="cutoff")
    rc = _report_failures(res)
    if rc:
        return rc
    ios = [p.measured for p in res.points]
    best = min(range(len(ios)), key=ios.__getitem__) if ios else None
    rows = [
        {
            "cutoff": int(p.x),
            "io": p.measured,
            "bound": p.bound,
            "best": i == best,
        }
        for i, p in enumerate(res.points)
    ]
    if args.json:
        payload = res.to_dict()
        payload.update(
            {
                "algorithm": args.alg,
                "signature": alg.signature(),
                "n": n,
                "M": args.M,
                "leaf": args.leaf,
                "depth": depth,
                "cutoffs": rows,
            }
        )
        _print_json(payload)
    else:
        print(f"{args.alg} {alg.signature()} hybrid cutoff sweep "
              f"(n={n}, M={args.M}, leaf={args.leaf}, backend={backend}):")
        table = [
            [r["cutoff"], r["io"], r["bound"], "*" if r["best"] else ""]
            for r in rows
        ]
        print(text_table(["cutoff", "measured I/O", "Ω floor", "best"], table))
        if best is not None:
            kind = ("pure classical" if best == 0
                    else "pure fast" if best == depth else "hybrid")
            print(f"best cutoff: {best} of {depth} ({kind})")
    return 0


def _cmd_recompute(args) -> int:
    from repro.analysis.report import text_table
    from repro.engine import pebble_optimal_point, run_sweep

    cost_models = (("symmetric", 1.0, 1.0), ("NVM ω=4", 1.0, 4.0))
    points = [
        pebble_optimal_point(
            "recompute_wins",
            M=3,
            allow_recompute=allow,
            read_cost=rc,
            write_cost=wc,
            gadgets=1,
            flush_length=2,
        )
        for _, rc, wc in cost_models
        for allow in (True, False)
    ]
    res = run_sweep(points, _engine_config(args), parameter="M")
    if res.failures:
        return _report_failures(res)
    ios = [p.measured for p in res.points]
    rows = [
        [name, ios[2 * i], ios[2 * i + 1]]
        for i, (name, _, _) in enumerate(cost_models)
    ]
    print("recomputation-wins gadget, M = 3 (optimal I/O):")
    print(text_table(["cost model", "with recompute", "without"], rows))
    print("\n(fast-matmul CDAGs show no gap — run examples/recomputation_study.py)")
    return 0


def _cmd_falsify(args) -> int:
    from repro.analysis.report import text_table
    from repro.falsify import (
        generate_mutants,
        generate_sweep_mutants,
        generate_valid_transforms,
        generate_zoo_mutants,
        run_battery,
        run_differential,
    )
    from repro.obs import collecting

    n_valid = max(12, args.mutants // 4)
    n_sweep = max(4, args.mutants // 10)
    n_zoo = max(8, args.mutants // 8)
    probes = None
    if args.backend:
        from repro.falsify.differential import default_probes

        probes = default_probes(backend=args.backend)
    with collecting() as reg:
        mutants = generate_mutants(args.mutants, seed=args.seed)
        mutants += generate_zoo_mutants(n_zoo, seed=args.seed)
        mutants += generate_valid_transforms(n_valid, seed=args.seed)
        sweeps = generate_sweep_mutants(n_sweep, seed=args.seed)
        battery = run_battery(mutants, sweeps)
        differential = run_differential(probes)
    ok = battery.ok and differential.ok
    if args.json:
        _print_json(
            {
                "ok": ok,
                "battery": battery.to_dict(),
                "differential": differential.to_dict(),
                "metrics": reg.to_dict(),
            }
        )
        return 0 if ok else 1
    print(
        f"falsify: {battery.invalid_total} invalid mutants, "
        f"{battery.valid_total} valid controls, seed={args.seed}"
    )
    rows = []
    for checker, classes in sorted(battery.kill_matrix.items()):
        for mclass, c in sorted(classes.items()):
            rows.append(
                [
                    checker,
                    mclass,
                    f"{c['killed']}/{c['killed'] + c['survived']}",
                    f"{c['targeted_killed']}/{c['targeted']}" if c["targeted"] else "-",
                ]
            )
    print(text_table(["checker", "mutation class", "killed", "targeted"], rows))
    print(f"targeted kill rate: {battery.targeted_kill_rate:.1%}")
    for gap in battery.gaps:
        print(f"  GAP: {gap['checker']} missed {gap['mutation']} "
              f"({gap['description']})", file=sys.stderr)
    for alarm in battery.false_alarms:
        print(f"  FALSE ALARM: {alarm['checker']} rejected valid "
              f"{alarm['mutation']} ({alarm['description']})", file=sys.stderr)
    n_agree = sum(1 for o in differential.outcomes if o.agree)
    print(f"differential: {n_agree}/{len(differential.outcomes)} probes agree exactly")
    for o in differential.divergent:
        print(f"  DIVERGED: {o.probe.label()} at {o.divergence}", file=sys.stderr)
    print("OK" if ok else "FALSIFICATION FAILURES")
    return 0 if ok else 1


def _cmd_reproduce(_args) -> int:
    from repro.analysis.reproduce import run_all

    return 1 if run_all() else 0


def _cmd_report(args) -> int:
    from repro.engine.wal import WALError
    from repro.obs import build_report, render_report

    # a missing dir, an invalid manifest or a corrupt results.jsonl line
    # (WALError names the file and the record index): fail closed
    try:
        report = build_report(args.sweep_dir, top=args.top)
    except (FileNotFoundError, ValueError, WALError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _print_json(report)
    else:
        print(render_report(report), end="")
    return 0


def _cmd_atlas(args) -> int:
    from repro.obs import build_atlas, render_atlas

    try:
        atlas = build_atlas(
            preset=args.preset,
            beam_width=args.beam_width,
            config=_engine_config(args),
        )
    except KeyError as exc:
        print(f"atlas: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        _print_json(atlas)
    else:
        print(render_atlas(atlas), end="")
    ok = (
        atlas["certification"]["ok"]
        and atlas["recompute_wins"]["ok"]
        and not atlas["failures"]
    )
    if not ok and not args.json:
        print("atlas: certification or recompute-wins check failed", file=sys.stderr)
    return 0 if ok else 1


def _cmd_cache_verify(args) -> int:
    from pathlib import Path

    from repro.engine import ResultCache

    if not Path(args.cache_dir).expanduser().is_dir():
        # ResultCache would create it, and an empty cache would read as OK
        print(f"cache verify: no cache directory at {args.cache_dir}", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    report = cache.repair() if args.repair else cache.verify()
    if args.json:
        _print_json(report)
    else:
        print(f"cache {args.cache_dir}: {report['entries']} entries, "
              f"{report['quarantined']} quarantined")
        for key in report["corrupt"]:
            print(f"  corrupt: {key}")
        if args.repair:
            print(f"repaired: {len(report['repaired']['quarantined'])} quarantined")
        print("OK" if report["ok"] else "PROBLEMS FOUND")
    # --repair exits non-zero whenever corruption was *found*, repaired
    # or not — a clean exit must mean the cache was already healthy
    return 0 if report["ok"] else 1


def _cmd_serve(args) -> int:
    from repro.engine import EngineConfig
    from repro.serve import Daemon, ServeConfig

    config = ServeConfig(
        serve_dir=args.dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        retry_after_s=args.retry_after,
        wal_sync=args.wal_sync,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        allow_remote_shutdown=args.allow_remote_shutdown,
        engine=EngineConfig(
            workers=args.workers,
            cache_dir=args.cache_dir,
            point_timeout_s=args.timeout,
            cache_max_bytes=args.cache_max_bytes,
        ),
    )
    daemon = Daemon(config)
    daemon.install_signal_handlers()
    host, port = daemon.start()
    print(f"serve: listening on http://{host}:{port} "
          f"(dir={config.serve_dir}, workers={config.workers}, "
          f"queue={config.queue_depth}, wal={config.wal_sync})")
    sys.stdout.flush()
    daemon.wait()
    print("serve: drained and stopped")
    return 0


def _cmd_serve_drill(args) -> int:
    from repro.serve.drill import run_drill

    report = run_drill(args.dir)
    if args.json:
        _print_json(report)
    else:
        for name, passed in sorted(report["checks"].items()):
            print(f"  {'PASS' if passed else 'FAIL'}  {name}")
        print("OK" if report["ok"] else "CHAOS CERTIFICATION FAILED")
        if not report["ok"]:
            _print_json(report["details"])
    return 0 if report["ok"] else 1


def _engine_parent() -> argparse.ArgumentParser:
    """Shared parent parser: execution/recovery flags of engine commands.

    Defined once (``--sweep-dir``/``--profile`` and friends used to be
    re-declared per subcommand) and attached via ``parents=[...]``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers", type=int, default=0, help="process-pool width")
    parent.add_argument("--cache-dir", default=None, help="persistent result cache")
    parent.add_argument(
        "--sweep-dir", default=None, metavar="DIR",
        help="observability directory: results.jsonl + manifest.json + "
             "profiles/ (consumed by `repro report DIR`)",
    )
    parent.add_argument(
        "--profile", choices=["off", "cprofile", "tracemalloc"],
        default="off",
        help="per-point profiling artifacts under DIR/profiles "
             "(requires --sweep-dir)",
    )
    parent.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-point wall-clock limit in seconds (needs --workers > 1)",
    )
    parent.add_argument(
        "--retries", type=int, default=0,
        help="re-queue a failed point up to this many times",
    )
    group = parent.add_mutually_exclusive_group()
    group.add_argument(
        "--fail-fast", dest="fail_fast", action="store_true",
        help="stop at the first permanent failure (rest marked skipped)",
    )
    group.add_argument(
        "--keep-going", dest="fail_fast", action="store_false",
        help="complete every surviving point despite failures (default)",
    )
    parent.set_defaults(fail_fast=False)
    parent.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="B",
        help="result-cache size budget; least-recently-used entries are "
             "evicted when a write exceeds it",
    )
    return parent


def _backend_parent() -> argparse.ArgumentParser:
    """Shared parent parser: Schedule-IR backend selection."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--backend", choices=["reference", "vector", "symbolic"], default=None,
        help="count I/O through repro.schedule.run with this backend "
             "(default: the physical machine executors)",
    )
    return parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for Nissim & Schwartz (2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine_parent = _engine_parent()
    backend_parent = _backend_parent()

    p_table1 = sub.add_parser("table1", help="print Table I")
    p_table1.add_argument("--json", action="store_true", help="machine-readable output")
    p_table1.set_defaults(fn=_cmd_table1)

    p_eval = sub.add_parser(
        "eval", help="evaluate Table I at (n, M, P)", parents=[backend_parent]
    )
    p_eval.add_argument("n", type=int)
    p_eval.add_argument("M", type=int)
    p_eval.add_argument("P", type=int)
    p_eval.add_argument("--json", action="store_true", help="machine-readable output")
    p_eval.set_defaults(fn=_cmd_eval)

    sub.add_parser("figures", help="print Figures 1-3").set_defaults(fn=_cmd_figures)
    sub.add_parser("verify", help="run the lemma audit").set_defaults(fn=_cmd_verify)

    p_sweep = sub.add_parser(
        "sweep",
        help="measured I/O sweep (engine-backed)",
        parents=[engine_parent, backend_parent],
    )
    p_sweep.add_argument("sizes", type=int, nargs="+")
    p_sweep.add_argument("--M", type=int, default=48)
    p_sweep.add_argument(
        "--algorithm",
        default="strassen",
        help="builtin (strassen, winograd, classical, karstadt_schwartz) "
             "or any corpus entry from `repro zoo list`",
    )
    p_sweep.add_argument("--json", action="store_true", help="machine-readable output")
    p_sweep.add_argument(
        "--no-replay",
        action="store_true",
        help="full executions (compute and verify C) instead of level replay",
    )
    p_sweep.add_argument(
        "--hybrid-cutoff", type=int, default=None, metavar="L",
        help="hybrid execution: fast recursion for the top L levels, the "
             "classical leaf kernel below (docs/hybrid.md)",
    )
    p_sweep.add_argument(
        "--leaf", choices=["tiled", "resident"], default="tiled",
        help="classical leaf scheme under --hybrid-cutoff: tiled "
             "(constant ≈4) or resident-C streaming (constant ≈2)",
    )
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_rec = sub.add_parser(
        "recompute",
        help="recomputation study (engine-backed)",
        parents=[engine_parent],
    )
    p_rec.set_defaults(fn=_cmd_recompute)

    p_report = sub.add_parser(
        "report", help="render the observability dashboard for a sweep directory"
    )
    p_report.add_argument("sweep_dir", help="directory a sweep wrote into")
    p_report.add_argument("--json", action="store_true", help="machine-readable output")
    p_report.add_argument(
        "--top", type=int, default=5, metavar="K", help="how many slowest points"
    )
    p_report.set_defaults(fn=_cmd_report)

    p_atlas = sub.add_parser(
        "atlas",
        parents=[engine_parent],
        help="schedule atlas: heuristic pebbling upper bounds vs. the "
             "exhaustive optimum and the paper's lower bounds",
    )
    p_atlas.add_argument(
        "--preset", choices=sorted(ATLAS_CHOICES), default="ci",
        help="instance grid to sweep (ci = the CI certification set)",
    )
    p_atlas.add_argument(
        "--beam-width", type=int, default=32, metavar="W",
        help="beam width of the search schedulers",
    )
    p_atlas.add_argument("--json", action="store_true", help="machine-readable output")
    p_atlas.set_defaults(fn=_cmd_atlas)

    p_cache = sub.add_parser("cache", help="result-cache maintenance")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cv = cache_sub.add_parser(
        "verify", help="check every cached row's checksum and JSON"
    )
    p_cv.add_argument("cache_dir", help="cache directory to scan")
    p_cv.add_argument("--json", action="store_true", help="machine-readable output")
    p_cv.add_argument(
        "--repair", action="store_true",
        help="move corrupt rows (or an unreadable database) to quarantine/ "
             "(exit is still non-zero when corruption was found)",
    )
    p_cv.set_defaults(fn=_cmd_cache_verify)

    p_serve = sub.add_parser(
        "serve",
        help="run the resilient serving daemon (WAL-backed job queue over HTTP)",
    )
    p_serve.add_argument("--dir", default="serve",
                         help="serve directory: WAL, endpoint.json, manifest, cache")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="0 picks an ephemeral port (published in endpoint.json)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker-pool width; 0/1 executes in-process")
    p_serve.add_argument("--queue-depth", type=int, default=256,
                         help="admission bound; overload answers HTTP 429")
    p_serve.add_argument("--retry-after", type=float, default=1.0, metavar="S",
                         help="Retry-After hint sent with 429 responses")
    p_serve.add_argument("--wal-sync", choices=["always", "batch", "off"],
                         default="always", help="WAL durability mode")
    p_serve.add_argument("--breaker-threshold", type=int, default=3,
                         help="consecutive pool failures that trip the breaker")
    p_serve.add_argument("--breaker-cooldown", type=float, default=5.0, metavar="S",
                         help="seconds the breaker stays open before a probe")
    p_serve.add_argument("--timeout", type=float, default=None, metavar="S",
                         help="per-execution wall-clock limit (EngineConfig."
                              "point_timeout_s)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="result cache (default: <dir>/cache)")
    p_serve.add_argument("--cache-max-bytes", type=int, default=None, metavar="B",
                         help="cache size budget with LRU eviction")
    p_serve.add_argument("--allow-remote-shutdown", action="store_true",
                         help="expose POST /shutdown (tests and drills)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_drill = sub.add_parser(
        "serve-drill",
        help="chaos-certify the daemon: backpressure, breaker, kill+restart",
    )
    p_drill.add_argument("--dir", default="serve-drill",
                         help="scratch directory for the drill daemons")
    p_drill.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_drill.set_defaults(fn=_cmd_serve_drill)

    p_zoo = sub.add_parser(
        "zoo", help="the fast-matmul algorithm corpus (docs/zoo.md)"
    )
    zoo_sub = p_zoo.add_subparsers(dest="zoo_command", required=True)
    p_zl = zoo_sub.add_parser(
        "list", help="list every corpus entry with its signature and ω₀"
    )
    p_zl.add_argument("--json", action="store_true", help="machine-readable output")
    p_zl.set_defaults(fn=_cmd_zoo_list)
    p_zv = zoo_sub.add_parser(
        "validate",
        help="re-check the Brent equations of every corpus file "
             "(non-zero exit on any invalid entry)",
    )
    p_zv.add_argument("--json", action="store_true", help="machine-readable output")
    p_zv.set_defaults(fn=_cmd_zoo_validate)
    p_zs = zoo_sub.add_parser(
        "sweep",
        help="per-algorithm I/O sweep: fitted exponent vs the entry's own ω₀",
        parents=[engine_parent, backend_parent],
    )
    p_zs.add_argument("--alg", required=True, help="corpus entry name")
    p_zs.add_argument(
        "sizes", type=int, nargs="*",
        help="problem sides (A-rows); default: consecutive powers of the "
             "base row dimension",
    )
    p_zs.add_argument("--M", type=int, default=64)
    p_zs.add_argument(
        "--points", type=int, default=4,
        help="how many default sweep sizes when none are given",
    )
    p_zs.add_argument(
        "--tolerance", type=float, default=None,
        help="max |fitted − ω₀| for a zero exit (default: the entry's "
             "measured per-algorithm gate, repro.zoo.sweep_tolerance)",
    )
    p_zs.add_argument(
        "--hybrid", action="store_true",
        help="sweep the hybrid cutoff 0..depth at the largest size instead "
             "of sweeping n (docs/hybrid.md)",
    )
    p_zs.add_argument(
        "--leaf", choices=["tiled", "resident"], default="tiled",
        help="classical leaf scheme for --hybrid sweeps",
    )
    p_zs.add_argument("--json", action="store_true", help="machine-readable output")
    p_zs.set_defaults(fn=_cmd_zoo_sweep)

    p_falsify = sub.add_parser(
        "falsify",
        help="mutation-test the checkers and cross-check the I/O counters",
        parents=[backend_parent],
    )
    p_falsify.add_argument(
        "--mutants", type=int, default=60, metavar="N",
        help="number of invalid algorithm mutants (valid controls and "
             "sweep mutants scale with N)",
    )
    p_falsify.add_argument("--seed", type=int, default=0, help="mutation RNG seed")
    p_falsify.add_argument("--json", action="store_true", help="machine-readable output")
    p_falsify.set_defaults(fn=_cmd_falsify)

    sub.add_parser(
        "reproduce", help="condensed run of every experiment (E1–E15)"
    ).set_defaults(fn=_cmd_reproduce)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
