"""The Theorem 1.1 segment audit, run on *actual* schedules.

The proof of Theorem 1.1 partitions any computation schedule — including
ones that recompute — into segments each containing exactly r² = 4M
first-time computations of output vertices of SUB_H^{r×r} (r = 2√M), and
shows every such segment performs at least r²/2 − n_init ≥ M I/O operations
(Lemma 3.6 via the dominator bound of Lemma 3.7).

This module executes that argument as a *checker*: given a concrete
schedule for H^{n×n} (recomputation-heavy or not), it locates the segment
boundaries and verifies the per-segment I/O floor, then reports the implied
total lower bound #segments · (r²/2 − M).  The benches run it against both
the write-back scheduler and the DFS-recomputation adversary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cdag.recursive import RecursiveCDAG
from repro.pebbling.game import MoveKind, Schedule
from repro.util.checks import check_positive_int, is_power_of

__all__ = ["SegmentReport", "segment_audit", "choose_segment_r"]


@dataclass
class SegmentReport:
    """Result of a segment audit."""

    r: int
    M: int
    outputs_per_segment: int
    per_segment_bound: int
    segment_io: list[int]
    leftover_outputs: int
    total_io: int

    @property
    def num_segments(self) -> int:
        return len(self.segment_io)

    @property
    def min_segment_io(self) -> int:
        return min(self.segment_io) if self.segment_io else 0

    @property
    def implied_lower_bound(self) -> int:
        """#complete segments × per-segment floor — Theorem 1.1's total."""
        return self.num_segments * self.per_segment_bound

    @property
    def holds(self) -> bool:
        """Does every complete segment respect the Lemma 3.6 floor?"""
        return all(io >= self.per_segment_bound for io in self.segment_io)


def choose_segment_r(M: int, n: int) -> int:
    """Largest power-of-two r ≤ 2√M that is ≤ n (the proof's r = 2√M, rounded).

    The paper takes M of the form making 2√M integral; for general M we
    round r down to a power of two so SUB_H^{r×r} exists in the constructed
    CDAG.  The per-segment floor adjusts accordingly (r²/2 − M may then be
    smaller than M, but remains exactly what Lemma 3.6 certifies).
    """
    check_positive_int(M, "M")
    r = 1
    while 2 * r <= 2 * (M ** 0.5) and 2 * r <= n:
        r *= 2
    return r


def segment_audit(
    H: RecursiveCDAG,
    schedule: Schedule,
    M: int,
    r: int | None = None,
) -> SegmentReport:
    """Partition ``schedule`` into Theorem 1.1 segments and audit their I/O.

    Only *first-time* computations of V_out(SUB_H^{r×r}) vertices advance
    the segment counter (the proof considers computations performed for the
    first time); every load and store inside the segment window counts as
    I/O.  The trailing partial segment is reported but not audited.

    Soundness: the floor r²/2 − M is Lemma 3.6's only when ``M`` is at
    least the fast-memory capacity the schedule *ran with* (n_init ≤ that
    capacity).  Callers wanting certified floors must audit at the
    execution M — see :mod:`repro.lemmas.theorem11`.
    """
    if r is None:
        r = choose_segment_r(M, H.n)
    check_positive_int(r, "r")
    if not is_power_of(r, H.alg.n) or r > H.n:
        raise ValueError(f"r={r} is not a valid recursion size for H^{H.n}×{H.n}")
    target_outputs = r * r
    sub_out = set(H.all_sub_output_vertices(r))
    per_segment_bound = max(0, target_outputs // 2 - M)

    segment_io: list[int] = []
    seen: set[int] = set()
    io_in_window = 0
    outputs_in_window = 0
    total_io = 0
    io_kinds = (MoveKind.LOAD, MoveKind.STORE)
    COMPUTE = MoveKind.COMPUTE
    for move in schedule.moves:
        kind = move.kind
        if kind in io_kinds:
            io_in_window += 1
            total_io += 1
        elif kind is COMPUTE:
            v = move.v
            if v in sub_out and v not in seen:
                seen.add(v)
                outputs_in_window += 1
                if outputs_in_window == target_outputs:
                    segment_io.append(io_in_window)
                    io_in_window = 0
                    outputs_in_window = 0
    return SegmentReport(
        r=r,
        M=M,
        outputs_per_segment=target_outputs,
        per_segment_bound=per_segment_bound,
        segment_io=segment_io,
        leftover_outputs=outputs_in_window,
        total_io=total_io,
    )
