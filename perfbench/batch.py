"""The batch workloads: ``reproduce`` and ``sweep_cold``.

Each workload has a ``setup`` (timed several times for ``setup_s``), an
``iteration`` that the untraced ``measure`` repeats for the end-to-end
metrics, and a ``trace`` that alternates untraced and span-traced
iterations for the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import gc
import time

import points
from common import (
    Iteration,
    Measurement,
    import_seconds,
    remove,
    trace_pass,
    until,
)

WORKERS = 2

#: (module, function or "Class.method", span name[, (count label, fn)])
BATCH_SPANS = [
    ("repro.engine.core", "run_sweep", "engine.core"),
    ("repro.engine.core", "execute_point",
     lambda spec, *a, **k: f"engine.runners.{spec['kind']}"),
    ("repro.engine.cache", "ResultCache.get", "engine.cache.get"),
    ("repro.engine.cache", "ResultCache.put", "engine.cache.put"),
    ("repro.engine.keys", "point_key", "engine.keys.point_key"),
    ("repro.obs.manifest", "RunManifest.write", "obs.manifest.write"),
    ("repro.lemmas.theorem11", "check_theorem11_adversary",
     "lemmas.theorem11_adversary"),
    ("repro.lemmas.lemma37", "check_lemma37", "lemmas.lemma37"),
    ("repro.lemmas.lemma311", "check_lemma311", "lemmas.lemma311"),
    ("repro.lemmas.lemma31", "check_lemma31", "lemmas.lemma31"),
    ("repro.pebbling.optimal", "optimal_io", "pebbling.optimal_io"),
    ("repro.pebbling.search", "memoized_subtree_schedule", "pebbling.search"),
    ("repro.pebbling.search", "beam_search_schedule", "pebbling.search"),
    ("repro.pebbling.search", "portfolio_schedule", "pebbling.search"),
    ("repro.pebbling.game", "validate_schedule", "pebbling.validate",
     ("pebbling.moves", lambda stats: stats["moves"])),
    ("repro.execution.write_avoiding", "nvm_cost_comparison",
     "execution.write_avoiding"),
    ("repro.execution.recursive_bilinear", "execute_recursive_bilinear",
     "execution.recursive_bilinear"),
    ("repro.execution.hybrid", "execute_hybrid", "execution.hybrid"),
    ("repro.execution.classical_tiled", "execute_tiled", "execution.tiled"),
    ("repro.execution.classical_tiled", "execute_lru_trace",
     "execution.lru_trace"),
    ("repro.execution.parallel_strassen", "execute_parallel_bfs",
     "execution.parallel_bfs"),
    ("repro.cdag.recursive", "build_recursive_cdag", "cdag.build_recursive"),
    ("repro.schedule.lower", "lower", "schedule.lower",
     ("schedule.ir_ops", len)),
    ("repro.schedule.api", "run",
     lambda schedule, machine=None, backend="reference":
     f"schedule.backend.{backend}"),
]


def run_sweep(points_, config, parameter):
    # looked up per call, so a traced pass reaches the patched function
    import repro.engine

    return repro.engine.run_sweep(points_, config, parameter=parameter)


def check_sweep(ctx, result) -> tuple[int, int]:
    """(attempted, failed) of one sweep.  Every point's counts must equal
    the pinned ones; a cache hit in a sweep into a fresh cache fails them
    all."""
    attempted = len(result.points) + len(result.failures)
    if result.stats["hit_rate"] != 0.0:
        return attempted, attempted
    failed = len(result.failures)
    for sp in result.points:
        want = ctx.expected.get(points.pin_id(sp.run))
        if points.count_signature(sp.run.kind, sp.run.metrics) != want:
            failed += 1
    return attempted, failed


def _checked(iterations: list[Iteration]) -> tuple[int, int]:
    return (sum(it.attempted for it in iterations),
            sum(it.failed for it in iterations))


def _measure(ctx, iteration) -> Measurement:
    m = Measurement()
    until(ctx.seconds, lambda: m.add(iteration()))
    return m


# --------------------------------------------------------------------- #
class Reproduce:
    """``repro.analysis.reproduce.run_all()`` (E1–E15) in one warm process."""

    setup_repeats = 9

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    def inputs(self) -> list:
        from repro.analysis.reproduce import EXPERIMENTS

        return [[tag, title] for tag, title, _ in EXPERIMENTS]

    def setup(self) -> float:
        return import_seconds(self.ctx, "repro.analysis.reproduce")

    def prepare(self) -> None:
        self.iteration()  # lazy imports and in-process caches settle

    def iteration(self, spans=None) -> Iteration:
        import repro.analysis.reproduce as rep

        originals = list(rep.EXPERIMENTS)
        if spans is not None:
            rep.EXPERIMENTS[:] = [
                (tag, title, spans.wrap(fn, f"analysis.reproduce.{tag}"))
                for tag, title, fn in originals
            ]
        try:
            gc.collect()
            t0 = time.perf_counter()
            failures = rep.run_all(verbose=False)
            wall = time.perf_counter() - t0
        finally:
            rep.EXPERIMENTS[:] = originals
        return Iteration(wall, [wall], len(originals), failures)

    def measure(self) -> Measurement:
        m = _measure(self.ctx, self.iteration)
        m.cold = m.calls  # run_all has no result cache to miss
        return m

    def trace(self) -> tuple[dict, int, int]:
        tp = trace_pass(self.ctx, BATCH_SPANS, self.iteration)
        return {**tp.layers(), **tp.shares()}, *_checked(tp.iterations)


# --------------------------------------------------------------------- #
class SweepCold:
    """The campaign: every sweep, one ``run_sweep`` each, into a fresh
    cache and a fresh sweep directory."""

    setup_repeats = 9

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.sweeps = points.all_sweeps(ctx.seed)

    def inputs(self) -> list:
        return [[name, param, [p.to_dict() for p in pts]]
                for name, param, pts in self.sweeps]

    def setup(self) -> float:
        return import_seconds(self.ctx, "repro.engine")

    def prepare(self) -> None:
        self.iteration()  # later passes settle slower than the first one

    def iteration(self, spans=None, workers: int | None = None) -> Iteration:
        from repro.engine import EngineConfig

        if workers is None:
            # the traced pass runs serially so layer calls stay in-process
            workers = WORKERS if spans is None else 0
        d = self.ctx.fresh_dir("sweeps-")
        it = Iteration(0.0, [], 0, 0)
        try:
            for i, (_, param, pts) in enumerate(self.sweeps):
                config = EngineConfig(workers=workers,
                                      cache_dir=d / "cache",
                                      sweep_dir=d / f"sweep-{i:03d}")
                gc.collect()
                t0 = time.perf_counter()
                result = run_sweep(pts, config, param)
                it.calls.append(time.perf_counter() - t0)
                attempted, failed = check_sweep(self.ctx, result)
                it.attempted += attempted
                it.failed += failed
                it.results.append(result)
        finally:
            remove(d)
        it.wall = sum(it.calls)
        return it

    def measure(self) -> Measurement:
        m = _measure(self.ctx, self.iteration)
        m.cold = m.calls  # every call misses the fresh cache
        return m

    def trace(self) -> tuple[dict, int, int]:
        pooled = self.iteration(workers=WORKERS)
        busy = sum(sp.run.wall_time_s for r in pooled.results for sp in r.points)
        tp = trace_pass(self.ctx, BATCH_SPANS, self.iteration)
        values = {**tp.layers(), **tp.shares(),
                  **machine_layers(tp.iterations),
                  "engine.pool.overhead_s": WORKERS * pooled.wall - busy}
        return values, *_checked([pooled, *tp.iterations])


def machine_layers(iterations: list[Iteration]) -> dict:
    """Exact machine counts from the points' ``trace["metrics"]`` and their
    rates over the wall time of the points that produced them."""
    words = seq_time = accesses = lru_time = 0.0
    for it in iterations:
        for result in it.results:
            for sp in result.points:
                c = (sp.run.trace or {}).get("metrics", {}).get("counters", {})
                w = (c.get("machine.seq.load_words", 0)
                     + c.get("machine.seq.store_words", 0)
                     + c.get("machine.seq.replay_words", 0))
                if w:
                    words += w
                    seq_time += sp.run.wall_time_s
                a = c.get("machine.lru.hits", 0) + c.get("machine.lru.misses", 0)
                if a:
                    accesses += a
                    lru_time += sp.run.wall_time_s
    n = len(iterations)
    return {
        "machine.seq.words": words / n,
        "machine.seq.words_per_s": words / seq_time if seq_time else 0.0,
        "machine.lru.accesses_per_s": accesses / lru_time if lru_time else 0.0,
    }
