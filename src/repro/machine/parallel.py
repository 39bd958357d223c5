"""The P-processor distributed-memory machine as a BSP-style simulator.

Section II-B's parallel model: P identical processors, each with local
memory M; exchanging an argument between processors is one I/O operation.
Programs are written as *supersteps* (the shape of the mpi4py collective
tutorials): in each superstep every processor runs a function over its local
store and emits messages; the machine delivers them afterwards and charges
each word to both the sender's ``sent`` and the receiver's ``received``
counters.  The per-processor communication volume — the quantity Theorem
1.1's parallel bounds constrain — is ``max_io_per_processor``.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.obs.metrics import active_registry

__all__ = ["BSPMachine"]

Message = tuple[int, str, np.ndarray]


class BSPMachine:
    """Superstep-driven distributed machine with per-word counters."""

    def __init__(self, P: int, M: int | None = None) -> None:
        if P < 1:
            raise ValueError("P must be >= 1")
        self.P = int(P)
        self.M = None if M is None else int(M)
        self.stores: list[dict[str, np.ndarray]] = [{} for _ in range(self.P)]
        self.sent = np.zeros(self.P, dtype=np.int64)
        self.received = np.zeros(self.P, dtype=np.int64)
        self.supersteps = 0

    # ------------------------------------------------------------------ #
    def place(self, proc: int, name: str, arr: np.ndarray) -> None:
        """Initial data layout (uncounted, like the model's even distribution)."""
        self.stores[proc][name] = np.array(arr)
        self._check_capacity(proc)

    def local(self, proc: int, name: str) -> np.ndarray:
        return self.stores[proc][name]

    def _check_capacity(self, proc: int) -> None:
        if self.M is None:
            return
        words = sum(a.size for a in self.stores[proc].values())
        if words > self.M:
            raise MemoryError(
                f"processor {proc} local memory overflow: {words} > M={self.M}"
            )

    # ------------------------------------------------------------------ #
    def superstep(
        self, fn: Callable[[int, dict[str, np.ndarray]], Iterable[Message] | None]
    ) -> None:
        """Run ``fn(rank, local_store)`` on every processor, then deliver.

        ``fn`` returns an iterable of (dest, name, array) messages.  A word
        sent to *yourself* is free — the model charges only inter-processor
        exchanges, matching Section II-B.

        Two messages addressed to the same (dest, name) within one
        superstep raise ``ValueError``: BSP delivery order is unspecified,
        so a silent last-writer-wins would drop one sender's words after
        charging both — the counters and the final store would disagree.
        (Overwriting a name delivered in an *earlier* superstep is fine.)
        """
        outboxes: list[list[Message]] = []
        for rank in range(self.P):
            msgs = fn(rank, self.stores[rank]) or []
            outboxes.append(list(msgs))
        delivered: dict[tuple[int, str], int] = {}
        for rank, msgs in enumerate(outboxes):
            for dest, name, arr in msgs:
                if not (0 <= dest < self.P):
                    raise ValueError(f"message to unknown processor {dest}")
                slot = (dest, name)
                if slot in delivered:
                    raise ValueError(
                        f"superstep write conflict: processors "
                        f"{delivered[slot]} and {rank} both sent "
                        f"{name!r} to processor {dest}"
                    )
                delivered[slot] = rank
                arr = np.asarray(arr)
                if dest != rank:
                    self.sent[rank] += arr.size
                    self.received[dest] += arr.size
                self.stores[dest][name] = np.array(arr)
        for rank in range(self.P):
            self._check_capacity(rank)
        self.supersteps += 1
        reg = active_registry()
        if reg is not None:
            step_words = sum(
                np.asarray(a).size for msgs in outboxes for _, _, a in msgs
            )
            reg.inc("machine.bsp.supersteps")
            reg.inc("machine.bsp.words", int(step_words))
            reg.gauge_set("machine.bsp.total_io", self.total_io)
            reg.gauge_max(
                "machine.bsp.max_io_per_processor", self.max_io_per_processor
            )

    # ------------------------------------------------------------------ #
    # collectives (convenience wrappers in the mpi4py idiom)
    # ------------------------------------------------------------------ #
    def bcast(self, root: int, name: str) -> None:
        """Broadcast a named array from root to all processors."""

        def step(rank: int, store: dict) -> list[Message]:
            if rank != root:
                return []
            arr = store[name]
            return [(d, name, arr) for d in range(self.P)]

        self.superstep(step)

    # ------------------------------------------------------------------ #
    @property
    def io_per_processor(self) -> np.ndarray:
        """Words sent + received per processor."""
        return self.sent + self.received

    @property
    def max_io_per_processor(self) -> int:
        return int(self.io_per_processor.max())

    @property
    def total_io(self) -> int:
        return int(self.sent.sum() + self.received.sum())

    def io_stats(self) -> dict[str, float]:
        io = self.io_per_processor
        return {
            "P": self.P,
            "max_io": int(io.max()),
            "mean_io": float(io.mean()),
            "total_io": self.total_io,
            "supersteps": self.supersteps,
        }
