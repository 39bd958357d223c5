"""The flat Schedule IR every executor lowers to.

A :class:`ScheduleIR` is a straight-line program over a two-level memory:
a list of typed :class:`Op` records (load / store / alloc / free / compute
/ replay / trace / comm), some tagged with the recursion ``level`` and
quadrant ``index`` they came from.  The IR is the *common substrate* of the
repository's counting paths: the sequential out-of-core executions, the
row-replay LRU trace, the red-blue pebbling validator, and the BFS
parallel simulator all lower to it (:mod:`repro.schedule.lower`), and the
backends (:mod:`repro.schedule.reference`, :mod:`repro.schedule.vector`,
:mod:`repro.schedule.symbolic`) all consume it — or, for the symbolic
backend, consume the *spec* that would have produced it.

Self-similarity is first-class: a ``REPLAY`` op references an earlier
*span* of the op list (``span=(i0, i1)``, half-open) and means "charge
``repeats`` more copies of that segment's I/O".  This is the IR encoding
of Lemma 2.2's isomorphic SUB_H subtrees — the same structure the
level-replay executors exploit — and it is what keeps replay-lowered
schedules at O(levels · t) ops instead of O(t^levels).

Ops never carry numpy arrays; the IR is a pure counting object, cheap to
count, serialize, and diff.  Building a ``seq_io`` IR is not cheap: it
is recorded by running the executor (:mod:`repro.schedule.lower`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["OpKind", "Op", "ScheduleIR", "IRValidationError", "BackendUnsupported"]


class BackendUnsupported(NotImplementedError):
    """The selected backend cannot count this workload kind.

    The backend matrix (docs/schedule_ir.md) is intentionally sparse: the
    symbolic backend needs a closed form or an exact extrapolation, which
    pebbling move lists and owner-map communication do not admit.
    """


class OpKind(str, Enum):
    """The op vocabulary of the Schedule IR."""

    LOAD = "load"        # slow → fast transfer: charges `words` reads
    STORE = "store"      # fast → slow transfer: charges `words` writes
    ALLOC = "alloc"      # fast-memory buffer creation (no I/O, occupies words)
    FREE = "free"        # fast-memory buffer release (no I/O, frees words)
    COMPUTE = "compute"  # arithmetic marker (pebbling: compute-move on `index`)
    REPLAY = "replay"    # recurse-expansion: repeat span's I/O `repeats` times
    TRACE = "trace"      # one address-trace segment (LRU workloads)
    COMM = "comm"        # distributed transfer of `words` between processors


@dataclass(slots=True)
class Op:
    """One typed IR operation.

    ``name`` is the buffer / label the op acts on; ``level`` the recursion
    depth it was lowered from; ``index`` the quadrant / product / vertex /
    row metadata (an int, or None).  ``span``/``repeats`` are only
    meaningful for ``REPLAY`` ops; ``tag`` groups ops into phases (e.g.
    the ABMM transform-vs-bilinear split).
    """

    kind: OpKind
    name: str = ""
    words: int = 0
    level: int = 0
    index: int | None = None
    span: tuple[int, int] | None = None
    repeats: int = 0
    tag: str | None = None

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind.value, "name": self.name, "words": self.words,
                   "level": self.level}
        if self.index is not None:
            d["index"] = self.index
        if self.span is not None:
            d["span"] = list(self.span)
            d["repeats"] = self.repeats
        if self.tag is not None:
            d["tag"] = self.tag
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Op":
        return cls(
            kind=OpKind(d["kind"]),
            name=d.get("name", ""),
            words=int(d.get("words", 0)),
            level=int(d.get("level", 0)),
            index=d.get("index"),
            span=tuple(d["span"]) if d.get("span") is not None else None,
            repeats=int(d.get("repeats", 0)),
            tag=d.get("tag"),
        )


class IRValidationError(ValueError):
    """A ScheduleIR violated a structural invariant."""


@dataclass
class ScheduleIR:
    """A lowered schedule: workload identity plus the flat op list.

    ``kind`` and ``params`` identify the workload the ops were lowered
    from (the same vocabulary as the engine's experiment points:
    ``seq_io``, ``lru_trace``, ``pebble``, ``parallel_comm``); ``meta``
    carries non-serializable lowering context (e.g. the CDAG a pebbling
    schedule runs on) and is excluded from :meth:`to_dict`.
    """

    kind: str
    params: dict = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # construction helpers (used by the lowerings)
    # ------------------------------------------------------------------ #
    def emit(self, kind: OpKind, name: str = "", words: int = 0, level: int = 0,
             index: int | None = None, span: tuple[int, int] | None = None,
             repeats: int = 0, tag: str | None = None) -> int:
        """Append one op; returns its index (for span bookkeeping)."""
        self.ops.append(Op(kind, name, int(words), level, index, span,
                           repeats, tag))
        return len(self.ops) - 1

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def num_levels(self) -> int:
        return 1 + max((op.level for op in self.ops), default=-1)

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check structural invariants; raises :class:`IRValidationError`.

        * words / repeats non-negative;
        * every REPLAY span is well-formed, strictly precedes the op, and
          carries repeats ≥ 1;
        * non-REPLAY ops carry no span.
        """
        for i, op in enumerate(self.ops):
            if op.words < 0:
                raise IRValidationError(f"op {i}: negative words {op.words}")
            if op.kind is OpKind.REPLAY:
                if op.span is None:
                    raise IRValidationError(f"op {i}: REPLAY without a span")
                a, b = op.span
                if not (0 <= a < b <= i):
                    raise IRValidationError(
                        f"op {i}: REPLAY span {op.span} must be a non-empty "
                        f"range strictly before the op"
                    )
                if op.repeats < 1:
                    raise IRValidationError(
                        f"op {i}: REPLAY repeats must be >= 1, got {op.repeats}"
                    )
            elif op.span is not None:
                raise IRValidationError(f"op {i}: span on non-REPLAY op {op.kind}")

    # ------------------------------------------------------------------ #
    # serialization / summaries
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "ops": [op.to_dict() for op in self.ops],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScheduleIR":
        return cls(
            kind=d["kind"],
            params=dict(d.get("params", {})),
            ops=[Op.from_dict(o) for o in d.get("ops", [])],
        )

    def summary(self) -> dict:
        """Per-kind op counts and word totals, plus the level span."""
        by_kind: dict[str, dict[str, int]] = {}
        for op in self.ops:
            slot = by_kind.setdefault(op.kind.value, {"ops": 0, "words": 0})
            slot["ops"] += 1
            slot["words"] += op.words
        return {
            "kind": self.kind,
            "ops": len(self.ops),
            "levels": self.num_levels,
            "by_kind": by_kind,
        }
