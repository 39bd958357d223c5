"""Experiment-point specifications and their (pure) executors.

An :class:`ExperimentPoint` is a picklable, JSON-serializable description
of one run: a ``kind`` naming the pipeline (CDAG build → schedule/pebble →
simulate → count I/O) and a ``params`` dict of plain values.  Executing a
point is a pure function of its spec — the property the persistent cache
and the process-pool fan-out both rest on.

Kinds
-----
``seq_io``
    Out-of-core matmul on :class:`~repro.machine.sequential.SequentialMachine`
    (tiled classical, recursive bilinear, or KS-ABMM), counting word I/O
    against the Theorem 1.1 sequential floor.
``parallel_comm``
    BFS-parallel fast matmul (or SUMMA when ``alg`` is None) with
    per-processor communication counts against both parallel bound terms.
``pebble_optimal``
    Exact minimum-I/O red-blue pebbling of a named CDAG family, with
    recomputation allowed or forbidden.
``pebble_search``
    Heuristic pebbling of a named CDAG family via the
    :mod:`repro.pebbling.search` schedulers (beam / portfolio /
    beam-memo / the polynomial baselines), every schedule replay-validated
    before its I/O is reported — the schedule-atlas upper bounds.
``segment_audit``
    A recomputation-heavy heuristic schedule of H^{n×n} replayed through
    the game validator and the Theorem 1.1 segment audit.
``hybrid``
    De Stefani-style hybrid execution (fast recursion above a cutoff
    level, classical tiled / resident-C leaves below) on the sequential
    machine, counting word I/O against both pure floors — the ℓ×M sweep
    surface of the leading-constant study.
``lru_trace``
    Naive (untiled) matmul pushed through the word-granular LRU cache
    simulator — the "automatic" two-level model — counting misses +
    write-backs against the classical sequential floor.

Algorithms are referenced by registry id ("strassen", "winograd",
"karstadt_schwartz", None for the classical baselines) or inlined as a
``{name, n, m, p, U, V, W}`` coefficient spec, so arbitrary corpus members
remain cacheable by content.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine.keys import point_key

__all__ = [
    "ExperimentPoint",
    "algorithm_spec",
    "resolve_algorithm",
    "reference_exponent",
    "seq_io_point",
    "hybrid_point",
    "parallel_comm_point",
    "pebble_optimal_point",
    "pebble_search_point",
    "segment_audit_point",
    "lru_trace_point",
    "execute_point",
    "closed_form",
    "PRIMARY_METRIC",
]

# Metric each kind treats as its sweep y-value.
PRIMARY_METRIC = {
    "seq_io": "io",
    "hybrid": "io",
    "parallel_comm": "comm_per_proc_max",
    "pebble_optimal": "io",
    "pebble_search": "io",
    "segment_audit": "total_io",
    "lru_trace": "io",
}


@dataclass(frozen=True)
class ExperimentPoint:
    """One runnable experiment: a kind plus JSON-safe parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return point_key(self.kind, self.params)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentPoint":
        return cls(kind=d["kind"], params=dict(d["params"]))


# --------------------------------------------------------------------- #
# algorithm references
# --------------------------------------------------------------------- #
def algorithm_spec(alg) -> str | dict | None:
    """Serialize an algorithm reference into a cache-keyable spec."""
    if alg is None or isinstance(alg, str):
        return alg
    if hasattr(alg, "U"):  # a BilinearAlgorithm (or compatible)
        return {
            "name": alg.name,
            "n": alg.n,
            "m": alg.m,
            "p": alg.p,
            "U": np.asarray(alg.U).tolist(),
            "V": np.asarray(alg.V).tolist(),
            "W": np.asarray(alg.W).tolist(),
        }
    raise TypeError(f"cannot serialize algorithm reference {alg!r}")


def resolve_algorithm(spec):
    """Inverse of :func:`algorithm_spec` — returns a live algorithm or None."""
    if spec is None:
        return None
    if isinstance(spec, str):
        from repro.algorithms import classical, strassen, winograd

        registry = {
            "strassen": strassen,
            "winograd": winograd,
            "classical": lambda: classical(2),
        }
        if spec == "karstadt_schwartz":
            from repro.basis import karstadt_schwartz

            return karstadt_schwartz()
        if spec in registry:
            return registry[spec]()
        # Fall back to the corpus: any zoo entry is addressable by name.
        from repro.zoo import load_algorithm

        try:
            return load_algorithm(spec)
        except KeyError:
            raise KeyError(f"unknown algorithm id {spec!r}") from None
    from repro.algorithms.bilinear import BilinearAlgorithm

    return BilinearAlgorithm(
        name=spec["name"],
        n=spec["n"],
        m=spec["m"],
        p=spec["p"],
        U=np.array(spec["U"], dtype=np.int64),
        V=np.array(spec["V"], dtype=np.int64),
        W=np.array(spec["W"], dtype=np.int64),
    )


def reference_exponent(spec) -> tuple[str, float]:
    """(display label, reference I/O exponent) of one algorithm spec.

    The classical baselines sit at the Hong–Kung exponent 3;
    Karstadt–Schwartz counts like its Strassen core (ω₀ = log₂ 7); every
    other bilinear algorithm carries its own ω₀ = 3·log_{nmp} t.  This is
    what sweeps and reports compare the fitted exponent against — the
    old hardcoded ``OMEGA0_STRASSEN`` mislabeled every non-Strassen fit.
    """
    from repro.bounds.formulas import OMEGA0_STRASSEN

    if spec is None or spec == "classical":
        return "classical", 3.0
    if spec == "karstadt_schwartz":
        return "karstadt_schwartz", OMEGA0_STRASSEN
    alg = resolve_algorithm(spec)
    return alg.name, alg.omega0


# --------------------------------------------------------------------- #
# point builders (the declarative surface the benchmarks use)
# --------------------------------------------------------------------- #
def _point(kind: str, params: dict, backend: str | None) -> ExperimentPoint:
    """``backend`` joins params unless it is None or "machine" (what a
    point without one runs on), so one computation has one cache key —
    the pre-backend key."""
    if backend not in (None, "machine"):
        params["backend"] = str(backend)
    return ExperimentPoint(kind, params)


def seq_io_point(
    alg,
    n: int,
    M: int,
    seed: int = 0,
    replay: bool = True,
    backend: str | None = None,
) -> ExperimentPoint:
    """Sequential I/O of one out-of-core matmul: alg None = tiled classical,
    "karstadt_schwartz" = ABMM, anything else = recursive bilinear DFS.

    ``replay`` (the default) runs the execution in replay mode — one of the
    isomorphic sub-problems (or C-tile passes) executed per level, the rest
    charged at the measured cost.  Counters are exact (the executions'
    cross-check tests certify this) but the numeric product is skipped, so
    large sweeps cost O(levels) executions instead of O(t^levels).  Pass
    ``replay=False`` to force the full execution with its ``C == A @ B``
    assertion.

    ``backend`` names the :func:`repro.schedule.run` backend that counts
    the point ("reference", "vector", "symbolic" — the symbolic backend
    reaches n ≥ 4096 in milliseconds); None or "machine" (the default)
    runs the physical executor on seeded operands.
    """
    return _point("seq_io", {
        "alg": algorithm_spec(alg),
        "n": int(n),
        "M": int(M),
        "seed": int(seed),
        "replay": bool(replay),
    }, backend)


def hybrid_point(
    alg,
    n: int,
    M: int,
    cutoff: int,
    seed: int = 0,
    replay: bool = True,
    leaf: str = "tiled",
    backend: str | None = None,
) -> ExperimentPoint:
    """Hybrid fast/classical I/O of one out-of-core matmul.

    ``cutoff`` is the number of fast recursion levels before switching to
    the classical ``leaf`` ("tiled" = 4-tile blocked, "resident" = the
    Smith et al. constant-optimal resident-C scheme); ``cutoff=0`` is the
    pure classical execution and ``cutoff >= hybrid_depth(...)`` the pure
    fast one, so a sweep over ℓ×M traces the bound-regime change that
    De Stefani's hybrid bounds (arXiv:1904.12804) predict.  ``alg`` must
    be a bilinear algorithm reference (any zoo entry); ``backend`` as for
    ``seq_io``.
    """
    if alg is None or alg == "karstadt_schwartz":
        raise ValueError("hybrid points need a plain bilinear algorithm")
    return _point("hybrid", {
        "alg": algorithm_spec(alg),
        "n": int(n),
        "M": int(M),
        "cutoff": int(cutoff),
        "seed": int(seed),
        "replay": bool(replay),
        "leaf": str(leaf),
    }, backend)


def parallel_comm_point(
    alg,
    n: int,
    P: int,
    M: int | None = None,
    seed: int = 0,
    backend: str | None = None,
) -> ExperimentPoint:
    """Per-processor communication of one distributed matmul:
    alg None = classical SUMMA on the BSP machine, else BFS-parallel.

    ``M`` adds the memory-dependent bound term and, for BFS, the local
    I/O of one leaf sub-problem.  ``backend`` as for ``seq_io``: the
    reference and vector backends count BFS communication through the
    owner-map Schedule IR (and the local I/O on the same backend); SUMMA
    runs on the ``machine`` backend only.  A SUMMA point needs a square
    ``P`` whose root divides ``n`` and, with ``M``, room for its
    5·(n/√P)² peak; a bad one raises ``ValueError`` here, before a sweep
    writes anything.
    """
    if alg is None:
        from repro.schedule import parallel_comm_schedule

        parallel_comm_schedule(None, n, P, M)  # validates; the spec is cheap
    return _point("parallel_comm", {
        "alg": algorithm_spec(alg),
        "n": int(n),
        "P": int(P),
        "M": None if M is None else int(M),
        "seed": int(seed),
    }, backend)


def pebble_optimal_point(
    family: str,
    M: int,
    allow_recompute: bool = True,
    read_cost: float = 1.0,
    write_cost: float = 1.0,
    max_states: int = 2_000_000,
    **family_params,
) -> ExperimentPoint:
    """Exact optimal pebbling I/O of a named CDAG family.

    Families: "recompute_wins" (gadgets, flush_length), "binary_tree"
    (depth), "diamond_chain" (length), "base_case_slice" (alg, output_index,
    style) — the Strassen sub-CDAG slices of the E7 study.
    """
    from repro.pebbling.game import PebbleCost

    # rejects negative or non-finite costs before a key is made
    cost = PebbleCost(float(read_cost), float(write_cost))
    return ExperimentPoint(
        "pebble_optimal",
        {
            "family": family,
            "family_params": {k: family_params[k] for k in sorted(family_params)},
            "M": int(M),
            "allow_recompute": bool(allow_recompute),
            "read_cost": cost.read_cost,
            "write_cost": cost.write_cost,
            "max_states": int(max_states),
        },
    )


def pebble_search_point(
    family: str,
    M: int,
    scheduler: str = "portfolio",
    beam_width: int = 32,
    inner: str = "portfolio",
    read_cost: float = 1.0,
    write_cost: float = 1.0,
    **family_params,
) -> ExperimentPoint:
    """Heuristic pebbling I/O (a validated upper bound) of a CDAG family.

    ``scheduler`` is one of "beam", "portfolio", "beam-memo" (Lemma 2.2
    SUB_H memoization — requires the "zoo_recursive" family),
    "topological-belady", "topological-lru", "dfs-recompute".  Families
    are those of :func:`pebble_optimal_point` plus "grid" (rows, cols),
    "fft" (n) and "zoo_recursive" (alg, n, style) — the recursive
    H^{n×n} of any zoo algorithm, far past the exhaustive 62-vertex cap.
    """
    from repro.pebbling.game import PebbleCost

    # rejects negative or non-finite costs before a key is made
    cost = PebbleCost(float(read_cost), float(write_cost))
    return ExperimentPoint(
        "pebble_search",
        {
            "family": family,
            "family_params": {k: family_params[k] for k in sorted(family_params)},
            "M": int(M),
            "scheduler": str(scheduler),
            "beam_width": int(beam_width),
            "inner": str(inner),
            "read_cost": cost.read_cost,
            "write_cost": cost.write_cost,
        },
    )


def segment_audit_point(
    alg, n: int, M: int, scheduler: str = "dfs_recompute", style: str = "tree"
) -> ExperimentPoint:
    """Theorem 1.1 segment audit of a (recomputing) schedule on H^{n×n}."""
    return ExperimentPoint(
        "segment_audit",
        {
            "alg": algorithm_spec(alg),
            "n": int(n),
            "M": int(M),
            "scheduler": scheduler,
            "style": style,
        },
    )


def lru_trace_point(
    n: int,
    M: int,
    kernel: str = "auto",
    row_replay: bool = True,
    backend: str | None = None,
) -> ExperimentPoint:
    """LRU-cache I/O of a naive matmul address trace (automatic model).

    ``kernel`` selects the cache simulation path ("auto", "vector",
    "scalar"); ``row_replay`` enables the O(1) replay of repeated i-rows
    once the cache state cycles (exact, certified by the cross-check
    tests).  ``backend`` as for ``seq_io``.
    """
    return _point("lru_trace", {
        "n": int(n),
        "M": int(M),
        "kernel": str(kernel),
        "row_replay": bool(row_replay),
    }, backend)


# --------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------- #
#: ABMM phase metrics a seq_io point carries through from its report.
_PHASE_METRICS = ("io_transform_forward", "io_bilinear", "io_transform_inverse",
                  "io_total", "transform_fraction")


def _seq_io_bound(kind: str, params: dict, alg) -> dict:
    """The bound fields of a ``seq_io`` or ``hybrid`` point."""
    from repro.bounds.formulas import classical_sequential, fast_sequential

    n, M = params["n"], params["M"]
    if kind == "seq_io" and alg is None:
        return {"bound": float(classical_sequential(n, M)), "n_eff": float(n)}
    if kind == "seq_io" and params["alg"] == "karstadt_schwartz":
        return {"bound": float(fast_sequential(n, M)), "n_eff": float(n)}
    n_eff = _effective_dim(alg, n)
    bound_fast = float(fast_sequential(n_eff, M, alg.omega0))
    if kind == "seq_io":
        return {"bound": bound_fast, "n_eff": n_eff}
    from repro.execution.hybrid import hybrid_depth

    bound_classical = float(classical_sequential(n_eff, M))
    return {
        # the weaker of the two pure floors: a conservative reference line
        # any hybrid obeys (De Stefani's exact hybrid bound interpolates
        # between them with the cutoff).
        "bound": min(bound_fast, bound_classical),
        "bound_fast": bound_fast,
        "bound_classical": bound_classical,
        "n_eff": n_eff,
        "cutoff": float(int(params["cutoff"])),
        "depth": float(hybrid_depth(alg, n, M)),
    }


def _effective_dim(alg, n: int) -> float:
    """Geometric-mean problem side (R·K·C)^{1/3} of the (R×K)·(K×C) run.

    For square algorithms this is n itself; for rectangular ⟨n,m,p⟩
    recursions it is ((nmp)^{1/3})ᴸ — the x-axis against which the fitted
    I/O exponent equals ω₀ = 3·log_{nmp} t (fitting against the raw A-side
    nᴸ would measure log_n t instead).
    """
    from repro.algorithms.bilinear import recursion_shape

    R, K, C = recursion_shape(alg, n)
    if R == K == C:  # exact — cbrt(n³) drifts below n in floating point
        return float(R)
    return float((R * K * C) ** (1.0 / 3.0))


def _run_seq_io(params: dict, kind: str = "seq_io") -> dict:
    """A ``seq_io`` or ``hybrid`` point: one :func:`repro.schedule.run`
    of its schedule (the ``machine`` backend unless the point names one)
    plus the kind's bound fields.

    When params omit ``replay`` a ``seq_io`` point runs in full (and
    checks the product) while a ``hybrid`` point replays.
    """
    from repro import schedule as _schedule

    hybrid = kind == "hybrid"
    if hybrid and params["alg"] in (None, "karstadt_schwartz"):
        raise ValueError("hybrid points need a plain bilinear algorithm")
    alg = resolve_algorithm(params["alg"])
    n, M, seed = params["n"], params["M"], params["seed"]
    bound = _seq_io_bound(kind, params, alg)
    split = {"cutoff": int(params["cutoff"]),
             "leaf": str(params.get("leaf", "tiled"))} if hybrid else {}
    spec = _schedule.seq_io_schedule(
        alg, n, M, replay=bool(params.get("replay", hybrid)), **split
    )
    spec.payload["seed"] = seed
    report = _schedule.run(spec, backend=params.get("backend") or "machine")
    metrics = {
        "io": float(report.io),
        "reads": int(report.reads),
        "writes": int(report.writes),
        "peak_fast": int(report.peak_fast),
        "io_cost": float(report.metrics.get("io_cost", report.io)),
        **bound,
    }
    metrics.update(
        {k: float(v) for k, v in report.metrics.items() if k in _PHASE_METRICS}
    )
    return metrics


def _run_parallel_comm(params: dict) -> dict:
    """A ``parallel_comm`` point: one :func:`repro.schedule.run` of its
    BFS or SUMMA schedule (the ``machine`` backend unless the point names
    one), plus — for BFS with an ``M`` — the local I/O of one leaf
    sub-problem counted as a ``seq_io`` schedule on the same backend,
    plus both parallel bound terms."""
    from repro import schedule as _schedule
    from repro.bounds.formulas import (
        classical_memory_independent,
        classical_parallel,
        fast_memory_independent,
        fast_parallel,
    )

    alg = resolve_algorithm(params["alg"])
    n, P, M = params["n"], params["P"], params["M"]
    backend = params.get("backend") or "machine"
    spec = _schedule.parallel_comm_schedule(alg, n, P, M)
    spec.payload["seed"] = params["seed"]
    comm = _schedule.run(spec, backend=backend).metrics
    local_io = 0.0
    if M is not None and alg is not None:
        local = _schedule.seq_io_schedule(alg, n // 2 ** int(comm["levels"]), M)
        local_io = float(_schedule.run(local, backend=backend).io)
    if alg is None:
        md = classical_parallel(n, M, P) if M is not None else float("nan")
        mi = classical_memory_independent(n, P)
    else:
        md = fast_parallel(n, M, P, alg.omega0) if M is not None else float("nan")
        mi = fast_memory_independent(n, P, alg.omega0)
    return {
        "comm_per_proc_max": float(comm["comm_per_proc_max"]),
        "local_io_per_proc": local_io,
        "bound_memory_dependent": float(md),
        "bound_memory_independent": float(mi),
        "bound": float(max(md, mi)) if md == md else float(mi),
    }


def _build_family(name: str, fp: dict):
    from repro.cdag.families import (
        binary_tree_cdag,
        diamond_chain_cdag,
        recompute_wins_cdag,
    )

    if name == "recompute_wins":
        return recompute_wins_cdag(fp.get("gadgets", 1), fp.get("flush_length", 2))
    if name == "binary_tree":
        return binary_tree_cdag(fp["depth"])
    if name == "diamond_chain":
        return diamond_chain_cdag(fp["length"])
    if name == "base_case_slice":
        from repro.cdag import base_case_cdag

        alg = resolve_algorithm(fp.get("alg", "strassen"))
        base = base_case_cdag(alg, style=fp.get("style", "tree"))
        return base.ancestor_closure([base.outputs[fp["output_index"]]])
    if name == "grid":
        from repro.cdag.families import grid_cdag

        return grid_cdag(fp["rows"], fp["cols"])
    if name == "fft":
        from repro.cdag.fft import fft_cdag

        return fft_cdag(fp["n"])
    if name == "zoo_recursive":
        return _build_recursive_family(fp).cdag
    raise KeyError(f"unknown CDAG family {name!r}")


def _build_recursive_family(fp: dict):
    """The RecursiveCDAG (with its SUB_H registries) of a zoo algorithm."""
    from repro.cdag import build_recursive_cdag

    alg = resolve_algorithm(fp.get("alg", "strassen"))
    return build_recursive_cdag(alg, fp["n"], style=fp.get("style", "tree"))


def _run_pebble_optimal(params: dict) -> dict:
    from repro.pebbling.game import PebbleCost
    from repro.pebbling.optimal import optimal_io

    cdag = _build_family(params["family"], params["family_params"])
    cost = PebbleCost(params["read_cost"], params["write_cost"])
    io = optimal_io(
        cdag,
        params["M"],
        allow_recompute=params["allow_recompute"],
        cost=cost,
        max_states=params["max_states"],
    )
    return {"io": float(io), "vertices": int(cdag.num_vertices)}


def _run_pebble_search(params: dict) -> dict:
    from repro.pebbling.game import PebbleCost, validate_schedule
    from repro.pebbling.heuristics import (
        dfs_recompute_schedule,
        topological_schedule,
    )
    from repro.pebbling.search import (
        beam_search_schedule,
        memoized_subtree_schedule,
        portfolio_schedule,
    )

    family, fp = params["family"], params["family_params"]
    M = params["M"]
    scheduler = params["scheduler"]
    beam_width = params.get("beam_width", 32)
    cost = PebbleCost(params["read_cost"], params["write_cost"])
    winner = scheduler
    if scheduler == "beam-memo":
        if family != "zoo_recursive":
            raise KeyError(
                "scheduler 'beam-memo' needs the 'zoo_recursive' family "
                "(SUB_H memoization keys on the recursive builder)"
            )
        rcdag = _build_recursive_family(fp)
        cdag = rcdag.cdag
        sched = memoized_subtree_schedule(
            rcdag, M, inner=params.get("inner", "portfolio"),
            beam_width=beam_width, cost=cost,
        )
    else:
        cdag = _build_family(family, fp)
        if scheduler == "beam":
            sched = beam_search_schedule(cdag, M, beam_width=beam_width, cost=cost)
        elif scheduler == "portfolio":
            res = portfolio_schedule(cdag, M, beam_width=beam_width, cost=cost)
            sched, winner = res.schedule, res.winner
        elif scheduler in ("topological-belady", "topological-lru"):
            sched = topological_schedule(
                cdag, M, eviction=scheduler.split("-", 1)[1]
            )
        elif scheduler == "dfs-recompute":
            sched = dfs_recompute_schedule(cdag, M)
        else:
            raise KeyError(f"unknown scheduler {scheduler!r}")
    # The reported io is never trusted from the scheduler: the replay
    # through the rules engine is the only source of the metric.
    stats = validate_schedule(sched, M, allow_recompute=True, cost=cost)
    return {
        "io": float(stats["io"]),
        "loads": int(stats["loads"]),
        "stores": int(stats["stores"]),
        "recomputations": int(stats["recomputations"]),
        "moves": int(stats["moves"]),
        "peak_red": int(stats["peak_red"]),
        "vertices": int(cdag.num_vertices),
        "winner": str(winner),
    }


def _run_segment_audit(params: dict) -> dict:
    from repro.cdag import build_recursive_cdag
    from repro.pebbling import segment_audit, validate_schedule
    from repro.pebbling.heuristics import dfs_recompute_schedule

    if params["scheduler"] != "dfs_recompute":
        raise KeyError(f"unknown scheduler {params['scheduler']!r}")
    alg = resolve_algorithm(params["alg"])
    H = build_recursive_cdag(alg, params["n"], style=params["style"])
    sched = dfs_recompute_schedule(H.cdag, params["M"])
    stats = validate_schedule(sched, params["M"], allow_recompute=True)
    rep = segment_audit(H, sched, M=params["M"])
    return {
        "total_io": int(rep.total_io),
        "loads": int(stats["loads"]),
        "stores": int(stats["stores"]),
        "recomputations": int(stats["recomputations"]),
        "moves": int(stats["moves"]),
        "num_segments": int(rep.num_segments),
        "per_segment_bound": int(rep.per_segment_bound),
        "min_segment_io": int(rep.min_segment_io),
        "implied_lower_bound": int(rep.implied_lower_bound),
        "holds": bool(rep.holds),
    }


def _run_lru_trace(params: dict) -> dict:
    from repro import schedule as _schedule
    from repro.bounds.formulas import classical_sequential

    n, M = params["n"], params["M"]
    spec = _schedule.lru_trace_schedule(
        n, M, kernel=params.get("kernel", "auto"),
        row_replay=bool(params.get("row_replay", True)),
    )
    stats = _schedule.run(spec, backend=params.get("backend") or "machine").metrics
    return {
        "io": float(stats["io"]),
        "hits": int(stats["hits"]),
        "misses": int(stats["misses"]),
        "writebacks": int(stats["writebacks"]),
        "bound": float(classical_sequential(n, M)),
    }


#: Params a hand-written point (a ``repro serve`` body skips the builders)
#: must carry, per kind; checked before anything executes.
_REQUIRED = {
    "seq_io": ("alg", "n", "M", "seed"),
    "hybrid": ("alg", "n", "M", "cutoff", "seed"),
    "parallel_comm": ("alg", "n", "P", "M", "seed"),
    "pebble_optimal": ("family", "family_params", "M", "allow_recompute",
                       "read_cost", "write_cost", "max_states"),
    "pebble_search": ("family", "family_params", "M", "scheduler",
                      "read_cost", "write_cost"),
    "segment_audit": ("alg", "n", "M", "scheduler", "style"),
    "lru_trace": ("n", "M"),
}

_EXECUTORS = {
    "seq_io": _run_seq_io,
    "hybrid": lambda params: _run_seq_io(params, "hybrid"),
    "parallel_comm": _run_parallel_comm,
    "pebble_optimal": _run_pebble_optimal,
    "pebble_search": _run_pebble_search,
    "segment_audit": _run_segment_audit,
    "lru_trace": _run_lru_trace,
}


def closed_form(kind: str, params: dict) -> bool:
    """True for a symbolic ``seq_io`` or ``hybrid`` point, which dispatch
    runs in the calling process unless a time limit asks for a worker: its
    counts are recurrence arithmetic over O(levels) shapes plus a leaf-tile
    divisor scan of at most √M steps (about 0.4 ms on the zoo's sizes, less
    than a pool round trip), with no native kernel to crash the process.
    A symbolic ``lru_trace`` point simulates rows, so it is not closed-form.
    """
    return kind in ("seq_io", "hybrid") and params.get("backend") == "symbolic"


def execute_point(spec: dict, profile: dict | None = None) -> tuple[dict, dict, float]:
    """Run one point spec; returns (metrics, trace summary, wall seconds).

    Top-level so :class:`concurrent.futures.ProcessPoolExecutor` can pickle
    it; the metrics registry is activated in whatever process executes the
    point, and only its snapshot (``trace["metrics"]``) crosses back.
    Wall time is measured here, inside the executing process, so pooled
    dispatch reports real per-point durations rather than a pool average.
    The first thing an execution does is consult the fault-injection plan
    (:func:`repro.engine.faults.apply_fault`), which is a no-op unless the
    ``REPRO_FAULTS`` environment variable is set.

    ``profile`` is an optional :func:`repro.obs.profile.profile_point`
    spec (``{"mode", "dir", "key"}``); artifacts land next to the sweep's
    JSONL checkpoint, never inside the trace (which must stay
    deterministic).
    """
    from repro.engine.faults import apply_fault
    from repro.obs.metrics import collecting
    from repro.obs.profile import profile_point

    kind = spec["kind"]
    if kind not in _EXECUTORS:
        raise KeyError(f"unknown experiment kind {kind!r}")
    missing = [p for p in _REQUIRED[kind] if p not in spec["params"]]
    if missing:
        raise ValueError(f"{kind} point is missing param(s) {missing}")
    t0 = time.perf_counter()
    with profile_point(profile):
        injected = apply_fault(spec)
        if injected is not None:
            metrics, trace = injected
        else:
            with collecting() as registry:
                metrics = _EXECUTORS[kind](spec["params"])
            trace = {"metrics": registry.to_dict()}
    return metrics, trace, time.perf_counter() - t0
