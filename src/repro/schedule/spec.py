"""Workload specs: the lazy front half of the Schedule IR.

A :class:`ScheduleSpec` names a workload (the same vocabulary as the
engine's experiment points) without materializing its op stream.  The
reference and vector backends call :meth:`ScheduleSpec.lower` to get a
:class:`~repro.schedule.ir.ScheduleIR`; the symbolic backend consumes the
spec directly and never materializes ops at all — which is what lets it
count an n = 4096 sweep point in milliseconds where the explicit-CDAG
path caps out near n ≈ 32.

Builders
--------
``seq_io_schedule``      out-of-core matmul (tiled classical, recursive
                         bilinear DFS, or ABMM — selected by ``alg``)
``lru_trace_schedule``   the naive-matmul address trace through an LRU cache
``pebble_schedule``      a red-blue pebbling move list (wraps a live
                         :class:`repro.pebbling.game.Schedule`)
``parallel_comm_schedule``  distributed matmul communication (BFS-parallel
                            fast matmul or classical SUMMA)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "ScheduleSpec",
    "seq_io_schedule",
    "lru_trace_schedule",
    "pebble_schedule",
    "parallel_comm_schedule",
    "spec_from_params",
]


@dataclass
class ScheduleSpec:
    """One lowerable workload: a kind, JSON-safe params, live payloads.

    ``params`` is cache-key-safe (the engine reuses it verbatim);
    ``payload`` holds resolved live objects (algorithms, pebbling
    schedules, CDAGs) that lowering needs but serialization must not see.
    """

    kind: str
    params: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)

    def label(self) -> str:
        inner = ",".join(
            f"{k}={v}" for k, v in sorted(self.params.items()) if k != "alg_spec"
        )
        return f"{self.kind}({inner})"

    def lower(self):
        """Materialize the op stream (see :mod:`repro.schedule.lower`)."""
        from repro.schedule.lower import lower

        return lower(self)


def _dfs_preset(spec: ScheduleSpec) -> tuple:
    """(alg, shape, cutoff, base_size, leaf) of a ``recursive`` or
    ``hybrid`` seq_io spec — one DFS, with ``recursive`` its preset at
    cutoff ``hybrid_depth`` (the executors' rule).  Shapes are validated
    as the executors validate them, so the errors match theirs."""
    from repro.algorithms.bilinear import recursion_shape
    from repro.execution.hybrid import hybrid_depth, validate_hybrid_shapes

    p = spec.params
    alg = spec.payload["alg"]
    M = int(p["M"])
    shape = recursion_shape(alg, int(p["n"]))
    base_size = max(shape) if p.get("base_size") is None else int(p["base_size"])
    if p.get("variant", "recursive") == "recursive":
        cutoff, leaf = hybrid_depth(alg, shape, M, base_size), "tiled"
    else:
        cutoff, leaf = int(p["cutoff"]), p.get("leaf", "tiled")
    validate_hybrid_shapes(alg, shape, M, base_size, cutoff)
    return alg, shape, cutoff, base_size, leaf


def _resolve_seq_alg(alg):
    """Classify a seq_io algorithm reference → (variant, live object).

    Variants: ``tiled`` (classical blocked), ``abmm`` (alternative basis),
    ``recursive`` (any square bilinear algorithm).
    """
    from repro.basis.abmm import AlternativeBasisAlgorithm

    if alg is None:
        return "tiled", None
    if alg == "karstadt_schwartz":
        from repro.basis import karstadt_schwartz

        return "abmm", karstadt_schwartz()
    if isinstance(alg, AlternativeBasisAlgorithm):
        return "abmm", alg
    if isinstance(alg, str):
        from repro.engine.runners import resolve_algorithm

        return "recursive", resolve_algorithm(alg)
    if hasattr(alg, "U"):
        return "recursive", alg
    raise TypeError(f"cannot interpret algorithm reference {alg!r}")


def seq_io_schedule(
    alg,
    n: int,
    M: int,
    replay: bool = True,
    base_size: int | None = None,
    cutoff: int | None = None,
    leaf: str = "tiled",
) -> ScheduleSpec:
    """Sequential out-of-core matmul I/O: alg None = tiled classical,
    "karstadt_schwartz" / an AlternativeBasisAlgorithm = ABMM, anything
    else (including "classical", the 2×2 classical base case) = recursive
    bilinear DFS — the same vocabulary as the engine's ``seq_io`` points.

    ``cutoff`` (levels) turns a recursive workload into the *hybrid*
    variant — fast recursion above the cutoff, classical ``leaf``
    ("tiled" or "resident") below, mirroring
    :func:`repro.execution.hybrid.execute_hybrid`.  The cutoff params are
    only added when a cutoff is given, so pre-hybrid cache keys and spec
    labels are unchanged.

    ``replay=True`` lowers one isomorphic sub-problem per level plus
    REPLAY expansion records (O(levels·t) ops); ``replay=False`` lowers
    the full recursion tree (O(t^levels) ops — small n only).
    """
    variant, live = _resolve_seq_alg(alg)
    alg_name = None if live is None else getattr(
        live, "name", getattr(getattr(live, "core", None), "name", str(alg))
    )
    params = {
        "alg": alg if isinstance(alg, (str, type(None))) else alg_name,
        "variant": variant,
        "n": int(n),
        "M": int(M),
        "replay": bool(replay),
        "base_size": None if base_size is None else int(base_size),
    }
    if cutoff is not None:
        if variant != "recursive":
            raise ValueError(
                f"hybrid cutoff requires a bilinear algorithm, not variant {variant!r}"
            )
        from repro.execution.hybrid import HYBRID_LEAVES

        if leaf not in HYBRID_LEAVES:
            raise ValueError(
                f"unknown hybrid leaf {leaf!r} (choose from {HYBRID_LEAVES})"
            )
        if int(cutoff) < 0:
            raise ValueError(f"cutoff must be non-negative, got {cutoff}")
        params["variant"] = "hybrid"
        params["cutoff"] = int(cutoff)
        params["leaf"] = str(leaf)
    return ScheduleSpec(kind="seq_io", params=params, payload={"alg": live})


def lru_trace_schedule(
    n: int, M: int, kernel: str = "auto", row_replay: bool = True
) -> ScheduleSpec:
    """The naive i-j-k matmul address trace through an LRU cache of M words."""
    return ScheduleSpec(
        kind="lru_trace",
        params={
            "n": int(n),
            "M": int(M),
            "kernel": str(kernel),
            "row_replay": bool(row_replay),
        },
    )


def pebble_schedule(
    schedule,
    M: int,
    allow_recompute: bool = True,
    read_cost: float = 1.0,
    write_cost: float = 1.0,
) -> ScheduleSpec:
    """A red-blue pebbling move list as a unified workload.

    ``schedule`` is a live :class:`repro.pebbling.game.Schedule`; the
    reference backend replays it under the game rules (the validator
    walking the IR), the vector backend counts its I/O with array passes.
    """
    return ScheduleSpec(
        kind="pebble",
        params={
            "M": int(M),
            "allow_recompute": bool(allow_recompute),
            "read_cost": float(read_cost),
            "write_cost": float(write_cost),
            "moves": len(schedule.moves),
        },
        payload={"schedule": schedule},
    )


def spec_from_params(kind: str, params: dict) -> ScheduleSpec:
    """Rebuild a spec from a (kind, params) pair — e.g. off a raw IR.

    Only workloads whose payload is recoverable from params qualify:
    ``seq_io`` (algorithm referenced by registry id) and ``lru_trace``
    (no payload).  Pebbling schedules and owner maps are live objects
    that params cannot reconstruct.
    """
    if kind == "seq_io":
        return seq_io_schedule(
            params.get("alg"),
            params["n"],
            params["M"],
            replay=bool(params.get("replay", True)),
            base_size=params.get("base_size"),
            cutoff=params.get("cutoff"),
            leaf=params.get("leaf", "tiled"),
        )
    if kind == "lru_trace":
        return lru_trace_schedule(
            params["n"],
            params["M"],
            kernel=params.get("kernel", "auto"),
            row_replay=bool(params.get("row_replay", True)),
        )
    raise KeyError(
        f"cannot rebuild a {kind!r} spec from params alone; "
        "pass the original ScheduleSpec"
    )


def parallel_comm_schedule(
    alg, n: int, P: int, M: int | None = None
) -> ScheduleSpec:
    """Distributed matmul communication on P processors: alg None = the
    ``summa`` variant (classical SUMMA on a √P×√P grid), any square
    bilinear algorithm = the ``bfs`` variant (BFS-parallel, P = tᵏ).

    ``M`` is the per-processor memory the BSP machine enforces on SUMMA's
    local blocks; the engine's runner also counts one leaf sub-problem's
    local I/O with it.  The machine backend runs either variant on seeded
    operands; only ``bfs`` lowers (see :func:`repro.schedule.lower.
    lower_parallel_comm`).
    """
    if M is not None and int(M) < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if alg is None:
        variant, live = "summa", None
        q = math.isqrt(max(int(P), 0))
        if P < 1 or q * q != P:
            raise ValueError(f"SUMMA needs a square processor count, got P={P}")
        if n % q:
            raise ValueError(f"SUMMA needs √P={q} to divide n={n}")
        if M is not None and int(M) < 5 * (n // q) ** 2:
            # the peak: A, B and C plus the two broadcast blocks Ak and Bk
            raise ValueError(f"SUMMA needs M >= 5·(n/√P)² = {5 * (n // q) ** 2} "
                             f"per processor, got M={M}")
    else:
        variant, live = _resolve_seq_alg(alg)
        if variant != "recursive":
            raise ValueError("parallel_comm requires a plain square bilinear algorithm")
        variant = "bfs"
    return ScheduleSpec(
        kind="parallel_comm",
        params={
            "alg": alg if isinstance(alg, (str, type(None))) else live.name,
            "variant": variant,
            "n": int(n),
            "P": int(P),
            "M": None if M is None else int(M),
        },
        payload={"alg": live},
    )
