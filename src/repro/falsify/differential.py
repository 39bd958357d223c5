"""Differential verification: independent I/O counters must agree exactly.

The repository counts I/O along three families of fast paths, each certified
against a slow reference:

* **level-replay** — :func:`repro.execution.recursive_bilinear.
  execute_recursive_bilinear` (and the tiled-classical / ABMM analogues)
  execute one isomorphic sub-problem per level and charge the rest in O(1);
* **row-replay** — :func:`repro.execution.classical_tiled.
  execute_lru_trace` detects the periodic LRU state and charges the
  remaining rows in O(1), with a vectorized kernel cross-checked against
  the scalar reference;
* **the pebbling-game counter** — :func:`repro.pebbling.game.
  validate_schedule` replays a schedule under the red-blue rules and counts
  loads/stores, against the raw move-list count.

Each probe here runs *one experiment point* through every available path
plus the :class:`~repro.obs.metrics.MetricsRegistry` ledger (an
independently accumulated counter stream) and asserts **exact** equality —
not tolerance-based: these are word counts of deterministic executions, and
a one-word drift is a bug.  When paths disagree, the probe walks a finer
ledger (the lowered Schedule IR, the per-row LRU deltas, the move list)
and reports the *first divergence*: the first op / row / move at which
the cumulative ledgers separate.

Used by ``repro falsify`` and the CI falsification job; the probe grid is
small enough for tier-1 (seconds, not minutes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import active_registry, collecting

__all__ = [
    "DifferentialProbe",
    "ProbeOutcome",
    "DifferentialReport",
    "default_probes",
    "run_differential",
    "localize_event_divergence",
    "localize_row_divergence",
    "localize_move_divergence",
    "localize_op_divergence",
    "localize_symbolic_divergence",
]


@dataclass(frozen=True)
class DifferentialProbe:
    """One point to push through every counting path: a kind + params.

    Kinds: ``level_replay`` (params: alg, n, M), ``row_replay`` (params:
    n, M), ``pebble`` (params: family, M, scheduler, family params),
    ``backend`` (params: workload, alg, n, M — the same point through
    every Schedule-IR backend, the physical ``machine`` one included).
    """

    kind: str
    params: dict

    @property
    def cutoff(self) -> int | None:
        """Hybrid cutoff level, or ``None`` for a pure-strategy probe."""
        c = self.params.get("cutoff")
        return None if c is None else int(c)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


@dataclass
class ProbeOutcome:
    """Result of one probe: per-path counters and the agreement verdict."""

    probe: DifferentialProbe
    counters: dict[str, dict]
    agree: bool
    divergence: dict | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.probe.kind,
            "params": self.probe.params,
            "counters": self.counters,
            "agree": self.agree,
            "divergence": self.divergence,
        }


@dataclass
class DifferentialReport:
    """All probe outcomes of one differential run."""

    outcomes: list[ProbeOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.agree for o in self.outcomes)

    @property
    def divergent(self) -> list[ProbeOutcome]:
        return [o for o in self.outcomes if not o.agree]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "probes": len(self.outcomes),
            "divergent": len(self.divergent),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


# --------------------------------------------------------------------- #
# divergence localization
# --------------------------------------------------------------------- #
def _cumulative_rw(ops) -> list[tuple[int, int, int]]:
    """(op index, cumulative reads, cumulative writes) after each I/O op
    of a lowered ``seq_io`` op list.

    LOAD adds its words to reads, STORE to writes; a REPLAY adds
    ``repeats`` × its span's (reads, writes), read off the running prefix
    sums — so a nested replay's span already holds the inner replays'
    charges, as in :meth:`SequentialMachine.consume_ir`.
    """
    from repro.schedule.ir import OpKind

    prefix = [(0, 0)]
    out: list[tuple[int, int, int]] = []
    for i, op in enumerate(ops):
        r, w = prefix[-1]
        if op.kind is OpKind.LOAD:
            r += op.words
        elif op.kind is OpKind.STORE:
            w += op.words
        elif op.kind is OpKind.REPLAY:
            (ra, wa), (rb, wb) = prefix[op.span[0]], prefix[op.span[1]]
            r += (rb - ra) * op.repeats
            w += (wb - wa) * op.repeats
        prefix.append((r, w))
        if op.kind in (OpKind.LOAD, OpKind.STORE, OpKind.REPLAY):
            out.append((i, r, w))
    return out


def localize_event_divergence(ops_a, ops_b) -> dict | None:
    """First point where two lowered ``seq_io`` op lists' ledgers separate.

    List A is the *coarser* one (e.g. the replay lowering, whose REPLAY
    ops summarize whole sub-trees); list B the finer reference.  A is
    exact iff every cumulative (reads, writes) checkpoint of A is hit
    *exactly* by some prefix of B, in order.  Returns ``None`` on full
    agreement, else a dict naming the first A op (by its index in A)
    whose checkpoint B cannot match.
    """
    cum_a = _cumulative_rw(ops_a)
    cum_b = _cumulative_rw(ops_b)
    j = 0
    before = 0
    for idx, ra, wa in cum_a:
        while j < len(cum_b) and (cum_b[j][1] < ra or cum_b[j][2] < wa):
            j += 1
        got = cum_b[min(j, len(cum_b) - 1)][1:] if cum_b else (0, 0)
        if got != (ra, wa):
            op = ops_a[idx]
            return {
                "where": "event",
                "index": idx,
                "event": {"event": f"machine.{op.kind.value}", "name": op.name,
                          "words": ra + wa - before},
                "expected_cumulative": {"reads": ra, "writes": wa},
                "got_cumulative": {"reads": got[0], "writes": got[1]},
            }
        before = ra + wa
    total_a = cum_a[-1][1:] if cum_a else (0, 0)
    total_b = cum_b[-1][1:] if cum_b else (0, 0)
    if total_a != total_b:
        return {
            "where": "event",
            "index": len(ops_a),
            "event": {"event": "end-of-stream"},
            "expected_cumulative": {"reads": total_a[0], "writes": total_a[1]},
            "got_cumulative": {"reads": total_b[0], "writes": total_b[1]},
        }
    return None


def localize_row_divergence(n: int, M: int) -> dict | None:
    """First i-row where the vector and scalar LRU kernels' stats separate.

    Replays the naive-matmul trace one row at a time through two
    independent caches and compares the per-row (hits, misses,
    writebacks) deltas.  Returns ``None`` when the kernels agree on every
    row (the certified state), else the first divergent row.
    """
    from repro.execution.classical_tiled import _naive_trace_addresses
    from repro.machine.cache import LRUCache

    vec = LRUCache(M)
    ref = LRUCache(M)
    for i in range(n):
        addrs, writes = _naive_trace_addresses(n, range(i, i + 1))
        before_v = (vec.hits, vec.misses, vec.writebacks)
        before_r = (ref.hits, ref.misses, ref.writebacks)
        vec.access_many(addrs, write=writes, kernel="vector")
        ref.access_many(addrs, write=writes, kernel="scalar")
        dv = tuple(a - b for a, b in zip((vec.hits, vec.misses, vec.writebacks), before_v))
        dr = tuple(a - b for a, b in zip((ref.hits, ref.misses, ref.writebacks), before_r))
        if dv != dr:
            return {
                "where": "row",
                "index": i,
                "vector_delta": {"hits": dv[0], "misses": dv[1], "writebacks": dv[2]},
                "scalar_delta": {"hits": dr[0], "misses": dr[1], "writebacks": dr[2]},
            }
    return None


def localize_move_divergence(schedule, M: int) -> dict | None:
    """First move where the game-state ledger and the move-kind ledger split.

    Walks the schedule once, maintaining (a) a naive count of LOAD/STORE
    moves and (b) an independent replay of the red-blue game state that
    counts the I/O each move *should* incur under the rules.  For any
    legal schedule these are identical by construction; the localizer
    exists for the day a counting bug makes
    :func:`~repro.pebbling.game.validate_schedule` disagree with
    :func:`~repro.pebbling.game.schedule_io` — it then names the move.
    """
    from repro.pebbling.game import MoveKind

    red: set[int] = set()
    blue: set[int] = set(schedule.cdag.inputs)
    kind_loads = kind_stores = 0
    game_loads = game_stores = 0
    for idx, m in enumerate(schedule.moves):
        if m.kind is MoveKind.LOAD:
            kind_loads += 1
            if m.v in blue and m.v not in red:
                game_loads += 1
            red.add(m.v)
        elif m.kind is MoveKind.STORE:
            kind_stores += 1
            if m.v in red:
                game_stores += 1
            blue.add(m.v)
        elif m.kind is MoveKind.COMPUTE:
            red.add(m.v)
        elif m.kind is MoveKind.EVICT:
            red.discard(m.v)
        if len(red) > M or (kind_loads, kind_stores) != (game_loads, game_stores):
            return {
                "where": "move",
                "index": idx,
                "move": {"kind": m.kind.value, "v": m.v},
                "kind_ledger": {"loads": kind_loads, "stores": kind_stores},
                "game_ledger": {"loads": game_loads, "stores": game_stores},
                "red_size": len(red),
            }
    return None


def localize_op_divergence(ir) -> dict | None:
    """First IR op where the vector and scalar per-op ledgers separate.

    Walks the op list with an independent scalar implementation of the
    effective read/write semantics (REPLAY spans resolved in index
    order) and compares op-for-op against the vector backend's array
    computation (:func:`repro.schedule.vector.effective_rw`).  Returns
    ``None`` on full agreement, else the first divergent op.
    """
    from repro.schedule.ir import OpKind
    from repro.schedule.vector import effective_rw

    scalar_r = [0] * len(ir.ops)
    scalar_w = [0] * len(ir.ops)
    for i, op in enumerate(ir.ops):
        if op.kind is OpKind.LOAD:
            scalar_r[i] = int(op.words)
        elif op.kind is OpKind.STORE:
            scalar_w[i] = int(op.words)
        elif op.kind is OpKind.REPLAY:
            a, b = op.span
            scalar_r[i] = sum(scalar_r[a:b]) * op.repeats
            scalar_w[i] = sum(scalar_w[a:b]) * op.repeats
    vec_r, vec_w = effective_rw(ir)
    for i, op in enumerate(ir.ops):
        if scalar_r[i] != int(vec_r[i]) or scalar_w[i] != int(vec_w[i]):
            return {
                "where": "op",
                "index": i,
                "op": op.to_dict(),
                "scalar": {"reads": scalar_r[i], "writes": scalar_w[i]},
                "vector": {"reads": int(vec_r[i]), "writes": int(vec_w[i])},
            }
    return None


def localize_symbolic_divergence(
    alg, n: int, M: int, cutoff: int | None = None, leaf: str = "tiled"
) -> dict | None:
    """Smallest problem size at which symbolic counts diverge from reference.

    Walks sizes 2, 4, …, n (skipping sizes the workload rejects) and
    compares the closed-form counts against the interpreted IR of the
    same spec — the smallest divergent size names the recurrence level
    where Lemma 2.2's self-similarity assumption broke.  ``cutoff``/
    ``leaf`` walk the hybrid closed forms instead, naming the level at
    which the fast-recursion and classical-leaf recurrences decoupled.
    """
    from repro import schedule as _schedule

    s = 2
    while s <= n:
        try:
            spec = _schedule.seq_io_schedule(alg, s, M, cutoff=cutoff, leaf=leaf)
            ref = _schedule.run(spec, backend="reference").counter_view()
            sym = _schedule.run(spec, backend="symbolic").counter_view()
        except Exception:
            s *= 2
            continue
        if ref != sym:
            return {
                "where": "size",
                "index": s,
                "reference": ref,
                "symbolic": sym,
            }
        s *= 2
    return None


# --------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------- #
def _seq_counter_view(metrics: dict) -> dict:
    return {
        "reads": int(metrics["reads"]),
        "writes": int(metrics["writes"]),
        "io": int(metrics["io"]),
        "peak_fast": int(metrics["peak_fast"]),
    }


def _registry_seq_view(trace: dict) -> dict:
    """The registry's independent ledger of a sequential-machine run."""
    counters = trace["metrics"]["counters"]
    gauges = trace["metrics"]["gauges"]
    reads = int(
        counters.get("machine.seq.load_words", 0)
        + counters.get("machine.seq.replay_read_words", 0)
    )
    writes = int(
        counters.get("machine.seq.store_words", 0)
        + counters.get("machine.seq.replay_write_words", 0)
    )
    return {
        "reads": reads,
        "writes": writes,
        "io": reads + writes,
        "peak_fast": int(gauges.get("machine.seq.peak_fast_words", 0)),
    }


def _run_level_replay_probe(probe: DifferentialProbe) -> ProbeOutcome:
    """seq_io through three ledgers: replay counters, full counters, registry."""
    from repro.engine.runners import execute_point, seq_io_point
    from repro.schedule import lower, seq_io_schedule

    alg = probe.params["alg"]
    n, M = probe.params["n"], probe.params["M"]
    alg_spec = None if alg in (None, "classical") else alg
    metrics_r, trace_r, _ = execute_point(
        seq_io_point(alg_spec, n, M, replay=True).to_dict()
    )
    metrics_f, trace_f, _ = execute_point(
        seq_io_point(alg_spec, n, M, replay=False).to_dict()
    )
    counters = {
        "level_replay": _seq_counter_view(metrics_r),
        "full": _seq_counter_view(metrics_f),
        "registry": _registry_seq_view(trace_r),
        "registry_full": _registry_seq_view(trace_f),
    }
    agree = len({tuple(sorted(c.items())) for c in counters.values()}) == 1
    divergence = None
    if not agree:
        divergence = localize_event_divergence(
            lower(seq_io_schedule(alg_spec, n, M, replay=True)).ops,
            lower(seq_io_schedule(alg_spec, n, M, replay=False)).ops,
        ) or {"where": "totals", "counters": counters}
    return ProbeOutcome(probe=probe, counters=counters, agree=agree, divergence=divergence)


def _run_row_replay_probe(probe: DifferentialProbe) -> ProbeOutcome:
    """lru_trace through row-replay, full-vector, and full-scalar paths."""
    from repro.execution.classical_tiled import execute_lru_trace

    n, M = probe.params["n"], probe.params["M"]
    keys = ("hits", "misses", "writebacks", "io")
    views = {
        "row_replay": execute_lru_trace(n, M, kernel="vector", row_replay=True),
        "full_vector": execute_lru_trace(n, M, kernel="vector", row_replay=False),
        "full_scalar": execute_lru_trace(n, M, kernel="scalar", row_replay=False),
    }
    counters = {
        name: {k: int(stats[k]) for k in keys} for name, stats in views.items()
    }
    agree = len({tuple(sorted(c.items())) for c in counters.values()}) == 1
    divergence = None
    if not agree:
        divergence = localize_row_divergence(n, M) or {
            "where": "totals",
            "counters": counters,
        }
    return ProbeOutcome(probe=probe, counters=counters, agree=agree, divergence=divergence)


def _build_probe_rcdag(params: dict):
    """Recursive (zoo) probe CDAGs — needed whole for Lemma 2.2 splicing."""
    from repro.cdag import build_recursive_cdag
    from repro.engine.runners import resolve_algorithm

    family = params["family"]
    if family == "strassen_h4":
        return build_recursive_cdag(resolve_algorithm("strassen"), 4)
    if family == "grey522_h1":
        return build_recursive_cdag(resolve_algorithm("grey-522-18"), 5)
    raise KeyError(f"unknown recursive probe CDAG family {family!r}")


def _build_probe_cdag(params: dict):
    from repro.cdag.families import binary_tree_cdag, recompute_wins_cdag

    family = params["family"]
    if family == "binary_tree":
        return binary_tree_cdag(params.get("depth", 4))
    if family == "recompute_wins":
        return recompute_wins_cdag(params.get("gadgets", 2), params.get("flush_length", 2))
    if family in ("strassen_h4", "grey522_h1"):
        return _build_probe_rcdag(params).cdag
    raise KeyError(f"unknown probe CDAG family {family!r}")


def _run_pebble_probe(probe: DifferentialProbe) -> ProbeOutcome:
    """A schedule through the validator, the move-list count, the registry."""
    from repro.pebbling.game import (
        MoveKind,
        PebbleCost,
        schedule_io,
        validate_schedule,
    )
    from repro.pebbling.heuristics import dfs_recompute_schedule, topological_schedule

    from repro.pebbling.search import (
        beam_search_schedule,
        memoized_subtree_schedule,
        portfolio_schedule,
    )

    M = probe.params["M"]
    scheduler = probe.params.get("scheduler", "topological")
    if scheduler == "beam_memo":
        # Memoized splicing needs the recursive structure, not just the CDAG.
        rcdag = _build_probe_rcdag(probe.params)
        cdag = rcdag.cdag
        sched = memoized_subtree_schedule(
            rcdag, M, beam_width=probe.params.get("beam_width", 16)
        )
        allow_recompute = True
    else:
        cdag = _build_probe_cdag(probe.params)
        if scheduler == "topological":
            sched = topological_schedule(cdag, M)
            allow_recompute = False
        elif scheduler == "dfs_recompute":
            sched = dfs_recompute_schedule(cdag, M)
            allow_recompute = True
        elif scheduler == "beam":
            sched = beam_search_schedule(
                cdag, M, beam_width=probe.params.get("beam_width", 16)
            )
            allow_recompute = True
        elif scheduler == "portfolio":
            sched = portfolio_schedule(
                cdag, M, beam_width=probe.params.get("beam_width", 16)
            ).schedule
            allow_recompute = True
        else:
            raise KeyError(f"unknown probe scheduler {scheduler!r}")
    with collecting() as reg:
        stats = validate_schedule(sched, M, allow_recompute=allow_recompute)
    snap = reg.to_dict()["counters"]
    move_loads = sum(1 for m in sched.moves if m.kind is MoveKind.LOAD)
    move_stores = sum(1 for m in sched.moves if m.kind is MoveKind.STORE)
    counters = {
        "validator": {
            "loads": int(stats["loads"]),
            "stores": int(stats["stores"]),
            "io": int(stats["io"]),
        },
        "move_list": {
            "loads": move_loads,
            "stores": move_stores,
            "io": int(schedule_io(sched, PebbleCost())),
        },
        "registry": {
            "loads": int(snap.get("pebble.loads", 0)),
            "stores": int(snap.get("pebble.stores", 0)),
            "io": int(snap.get("pebble.io", 0)),
        },
    }
    agree = len({tuple(sorted(c.items())) for c in counters.values()}) == 1
    divergence = None
    if not agree:
        divergence = localize_move_divergence(sched, M) or {
            "where": "totals",
            "counters": counters,
        }
    return ProbeOutcome(probe=probe, counters=counters, agree=agree, divergence=divergence)


def _run_backend_probe(probe: DifferentialProbe) -> ProbeOutcome:
    """One workload through every registered backend.

    The cross-checked set: machine (the physical execution the IR is
    lowered from), reference (machine-charged op walk), vector (array
    passes) and symbolic (closed forms — seq_io/lru_trace only).  Exact
    equality of counter views, with two localizers: per-op (reference's
    scalar ledger vs the vector arrays) and per-size (smallest s where
    symbolic leaves the interpreted counts).

    ``cutoff`` (with optional ``leaf``) switches the seq_io workload to
    the hybrid variant: the spec carries the cutoff into every backend,
    the machine column included (:func:`~repro.execution.hybrid.
    execute_hybrid` at the same level).
    """
    from repro import schedule as _schedule
    from repro.schedule.ir import BackendUnsupported

    workload = probe.params.get("workload", "seq_io")
    n, M = probe.params["n"], probe.params["M"]
    cutoff = probe.cutoff
    leaf = probe.params.get("leaf", "tiled")
    if workload == "seq_io":
        alg = probe.params.get("alg")
        spec = _schedule.seq_io_schedule(alg, n, M, replay=True, cutoff=cutoff, leaf=leaf)
        keys = None  # counter_view
    elif workload == "lru_trace":
        alg = None
        spec = _schedule.lru_trace_schedule(n, M)
        keys = ("hits", "misses", "writebacks", "io")
    else:
        raise KeyError(f"unknown backend probe workload {workload!r}")

    # ``backends`` narrows the cross-check to one backend; the machine
    # column is always kept, it is what that backend is checked against
    wanted = probe.params.get("backends")
    counters: dict[str, dict] = {}
    for backend in sorted(_schedule.BACKENDS if wanted is None
                          else {*wanted, "machine"}):
        try:
            report = _schedule.run(spec, backend=backend)
        except BackendUnsupported:
            continue
        if keys is None:
            counters[backend] = report.counter_view()
        else:
            counters[backend] = {k: int(report.metrics[k]) for k in keys}

    agree = len({tuple(sorted(c.items())) for c in counters.values()}) == 1
    divergence = None
    if not agree:
        if workload == "seq_io":
            if counters.get("reference") != counters.get("vector"):
                divergence = localize_op_divergence(spec.lower())
            if divergence is None and counters.get("symbolic") is not None:
                divergence = localize_symbolic_divergence(
                    alg, n, M, cutoff=cutoff, leaf=leaf
                )
        else:
            divergence = localize_row_divergence(n, M)
        divergence = divergence or {"where": "totals", "counters": counters}
    return ProbeOutcome(probe=probe, counters=counters, agree=agree, divergence=divergence)


_PROBE_RUNNERS = {
    "level_replay": _run_level_replay_probe,
    "row_replay": _run_row_replay_probe,
    "pebble": _run_pebble_probe,
    "backend": _run_backend_probe,
}


def default_probes(backend: str | None = None) -> list[DifferentialProbe]:
    """The default sweep grid: every counting family, every execution kind.

    Sized for tier-1: full executions stay at n ≤ 32, the scalar LRU
    reference at n ≤ 16, the pebbling CDAGs at ≤ a few hundred vertices.

    ``backend`` restricts the *backend* probes to cross-checking that one
    backend against the physical machine executor (the CLI's
    ``falsify --backend``); None compares every backend.
    """
    probes: list[DifferentialProbe] = []
    for alg, n, M in (
        ("strassen", 8, 48),
        ("strassen", 16, 48),
        ("winograd", 16, 48),
        ("karstadt_schwartz", 16, 48),
        ("classical", 16, 64),
        ("classical", 32, 64),
        # zoo entries: a t=23 3×3 base and the rectangular ⟨5,2,2;18⟩
        # (n=25 → (25×4)·(4×4), one recursion level at M=64)
        ("laderman", 9, 48),
        ("grey-522-18", 25, 64),
    ):
        probes.append(DifferentialProbe("level_replay", {"alg": alg, "n": n, "M": M}))
    for n, M in ((6, 16), (8, 16), (12, 24), (16, 32)):
        probes.append(DifferentialProbe("row_replay", {"n": n, "M": M}))
    probes.extend(
        [
            DifferentialProbe(
                "pebble", {"family": "binary_tree", "depth": 4, "M": 3,
                           "scheduler": "topological"}
            ),
            DifferentialProbe(
                "pebble", {"family": "recompute_wins", "gadgets": 2,
                           "flush_length": 2, "M": 4, "scheduler": "dfs_recompute"}
            ),
            DifferentialProbe(
                "pebble", {"family": "strassen_h4", "M": 8,
                           "scheduler": "topological"}
            ),
            DifferentialProbe(
                "pebble", {"family": "strassen_h4", "M": 12,
                           "scheduler": "dfs_recompute"}
            ),
            # search schedulers: the beam, the portfolio race, and the
            # Lemma 2.2 memoized splice — each replayed through the
            # validator against the raw move-list count
            DifferentialProbe(
                "pebble", {"family": "binary_tree", "depth": 4, "M": 5,
                           "scheduler": "beam"}
            ),
            DifferentialProbe(
                "pebble", {"family": "recompute_wins", "gadgets": 2,
                           "flush_length": 2, "M": 3, "scheduler": "portfolio"}
            ),
            DifferentialProbe(
                "pebble", {"family": "strassen_h4", "M": 10,
                           "scheduler": "portfolio", "beam_width": 8}
            ),
            DifferentialProbe(
                "pebble", {"family": "strassen_h4", "M": 12,
                           "scheduler": "beam_memo"}
            ),
            DifferentialProbe(
                "pebble", {"family": "grey522_h1", "M": 12,
                           "scheduler": "beam_memo"}
            ),
        ]
    )
    extra = {} if backend is None else {"backends": [backend]}
    for alg, n, M in (
        ("strassen", 16, 48),
        ("strassen", 32, 256),
        ("winograd", 16, 128),
        ("karstadt_schwartz", 32, 256),
        ("classical", 16, 64),
        (None, 32, 300),
        # zoo entries through every backend vs the physical machine
        ("laderman", 27, 64),
        ("grey-333-23-221", 9, 48),
        ("grey-522-18", 125, 64),
    ):
        probes.append(
            DifferentialProbe(
                "backend",
                {"workload": "seq_io", "alg": alg, "n": n, "M": M, **extra},
            )
        )
    # hybrid probes: fast recursion for `cutoff` levels, classical leaves
    # below — three cutoff levels, both leaf schemes, and the rectangular
    # ⟨5,2,2;18⟩ zoo entry, all through every backend vs execute_hybrid
    for alg, n, M, cutoff, leaf in (
        ("strassen", 16, 48, 1, "tiled"),
        ("strassen", 32, 48, 2, "tiled"),
        ("strassen", 32, 96, 1, "resident"),
        ("winograd", 16, 48, 3, "resident"),
        ("laderman", 27, 64, 1, "tiled"),
        ("grey-522-18", 125, 64, 1, "resident"),
        ("grey-522-18", 25, 64, 1, "tiled"),
    ):
        probes.append(
            DifferentialProbe(
                "backend",
                {"workload": "seq_io", "alg": alg, "n": n, "M": M,
                 "cutoff": cutoff, "leaf": leaf, **extra},
            )
        )
    for n, M in ((8, 16), (16, 32)):
        probes.append(
            DifferentialProbe(
                "backend", {"workload": "lru_trace", "n": n, "M": M, **extra}
            )
        )
    return probes


def run_differential(
    probes: list[DifferentialProbe] | None = None,
) -> DifferentialReport:
    """Run every probe; exact agreement or localized divergence per probe.

    Publishes ``falsify.differential.*`` counters into the active
    registry.  Never raises on divergence — the report carries it.
    """
    report = DifferentialReport()
    reg = active_registry()
    for probe in probes if probes is not None else default_probes():
        runner = _PROBE_RUNNERS.get(probe.kind)
        if runner is None:
            raise KeyError(f"unknown differential probe kind {probe.kind!r}")
        outcome = runner(probe)
        report.outcomes.append(outcome)
        if reg is not None:
            reg.inc("falsify.differential.probes")
            reg.inc(
                "falsify.differential.agreements"
                if outcome.agree
                else "falsify.differential.divergences"
            )
    return report
