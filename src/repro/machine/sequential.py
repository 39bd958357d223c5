"""The sequential two-level memory machine (Section II-B).

Out-of-core algorithms in :mod:`repro.execution` run against this machine:
they explicitly ``load`` named arrays from slow to fast memory, compute on
the fast-memory buffers with plain numpy, and ``store`` results back.  The
machine enforces the fast-memory capacity in *words* (array elements) and
counts every word moved in each direction — the I/O the paper's bounds are
about.  Nothing is estimated; if an algorithm forgets to evict, it crashes
with :class:`FastMemoryOverflow` instead of silently under-counting.  That
holds for the two geometry-charged runs too — a streamed linear
combination (:meth:`SequentialMachine.stream_combination`) and a tile
k-loop (:meth:`SequentialMachine.tile_k_loop`).  Each is one call whose
counters and registry metrics are exactly those of its
transfer-by-transfer loop, computed from the chunk geometry in closed
form, with the arithmetic done in bulk on the slow arrays.

Two accounting guarantees hold:

* the invariant ``fast_words ≤ M`` (hence ``peak_fast_words ≤ M``) is
  checked on **every** allocation — it cannot be violated without raising
  (a geometry-charged run checks its first, largest step, which bounds
  the others);
* in **strict mode** (``SequentialMachine(M, strict=True)``) the machine
  additionally instruments numpy *temporaries*: arithmetic must be wrapped
  in ``with machine.compute():`` and any hidden allocation (e.g. the
  ``b×b`` buffer ``a @ b`` materializes before an ``out=``-less add) raises
  :class:`StrictAccountingError`.  This is the guard against the classic
  under-accounting bug where an execution charges 3 tiles but numpy
  silently holds a fourth.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import numpy as np

from repro.obs.metrics import active_registry

__all__ = ["SequentialMachine", "FastMemoryOverflow", "StrictAccountingError"]


def _publish_run(direction: str, words: int, count: int) -> None:
    """Publish ``count`` counted transfers of ``words`` each as typed
    metrics (``machine.seq.*``, docs/observability.md) into the active
    :class:`~repro.obs.metrics.MetricsRegistry`, if any — the machine's
    only instrumentation channel."""
    reg = active_registry()
    if reg is not None:
        reg.inc(f"machine.seq.{direction}s", count)
        reg.inc(f"machine.seq.{direction}_words", words * count)
        reg.observe("machine.seq.transfer_words", words, count)


#: Fast names of the transient buffers of the two bulk calls, which the
#: recorded schedule ops carry: the accumulator and source chunk of
#: :meth:`SequentialMachine.stream_combination`, the A and B tiles of
#: :meth:`SequentialMachine.tile_k_loop`.
STREAM_BUFFERS = ("_acc", "_src")
TILE_BUFFERS = ("At", "Bt")


def stream_chunks(shape: tuple[int, int], budget: tuple[int, int]):
    """(r, c, rows, cols) of each chunk of a streamed ``shape`` block, in
    streaming order: row bands of ``budget[0]`` rows, each cut into
    ``budget[1]``-column chunks; the last band and column are the tails."""
    hr, hc = shape
    rb, cb = budget
    for r in range(0, hr, rb):
        for c in range(0, hc, cb):
            yield r, c, min(rb, hr - r), min(cb, hc - c)


def _chunk_sizes(shape: tuple[int, int], budget: tuple[int, int]):
    """(words, count) of the chunks of :func:`stream_chunks`, closed form:
    full chunks, the column tail, the row tail and the corner."""
    (nr, rt), (nc, ct) = divmod(shape[0], budget[0]), divmod(shape[1], budget[1])
    return [
        (rows * cols, nrows * ncols)
        for rows, nrows in ((budget[0], nr), (rt, int(rt > 0)))
        for cols, ncols in ((budget[1], nc), (ct, int(ct > 0)))
        if nrows and ncols
    ]


class FastMemoryOverflow(RuntimeError):
    """An allocation would exceed the fast-memory capacity M."""


class StrictAccountingError(FastMemoryOverflow):
    """Strict mode detected an uncharged numpy temporary during compute()."""


class SequentialMachine:
    """Two-level memory with explicit transfers and word-exact I/O counters.

    Parameters
    ----------
    M:
        Fast-memory capacity in words.
    read_cost / write_cost:
        Per-word transfer costs (write_cost > read_cost models NVM, §V).
    strict:
        Instrument numpy temporaries inside :meth:`compute` blocks; any
        hidden allocation beyond ``strict_slack_bytes`` (plus what the
        block was explicitly granted) raises :class:`StrictAccountingError`.
    strict_slack_bytes:
        Allowance for interpreter noise (array wrappers, iterators) inside
        a strict compute block.  Default 1024 bytes — far below one word
        row of any realistically-sized tile.
    """

    def __init__(
        self,
        M: int,
        read_cost: float = 1.0,
        write_cost: float = 1.0,
        strict: bool = False,
        strict_slack_bytes: int = 1024,
    ) -> None:
        if M < 1:
            raise ValueError("M must be >= 1")
        self.M = int(M)
        self.read_cost = float(read_cost)
        self.write_cost = float(write_cost)
        self.strict = bool(strict)
        self.strict_slack_bytes = int(strict_slack_bytes)
        self.slow: dict[str, np.ndarray] = {}
        self.fast: dict[str, np.ndarray] = {}
        self.fast_words = 0
        self.words_read = 0
        self.words_written = 0
        self.peak_fast_words = 0

    # ------------------------------------------------------------------ #
    # slow-memory staging (uncounted: modelling the initial input layout)
    # ------------------------------------------------------------------ #
    def place_input(self, name: str, arr: np.ndarray) -> None:
        """Put an input array into slow memory (no I/O cost: initial layout)."""
        self.slow[name] = np.array(arr)

    def fetch_output(self, name: str) -> np.ndarray:
        """Read a result from slow memory after the run (no I/O cost)."""
        return self.slow[name]

    def drop_slow(self, name: str) -> None:
        """Discard a slow-memory temporary (frees nothing we count)."""
        self.slow.pop(name, None)

    def alloc_slow(self, name: str, shape, dtype=np.float64) -> None:
        """Reserve a zeroed slow-memory temporary (uncounted: it is never
        read before being overwritten by counted stores)."""
        self.slow[name] = np.zeros(shape, dtype=dtype)

    # ------------------------------------------------------------------ #
    # counted transfers
    # ------------------------------------------------------------------ #
    def _charge_alloc(self, words: int) -> None:
        # The machine-level invariant: fast_words ≤ M on every allocation.
        if self.fast_words + words > self.M:
            raise FastMemoryOverflow(
                f"fast memory overflow: {self.fast_words} + {words} > M={self.M}"
            )
        self.fast_words += words
        self.peak_fast_words = max(self.peak_fast_words, self.fast_words)
        reg = active_registry()
        if reg is not None:
            reg.gauge_max("machine.seq.peak_fast_words", self.peak_fast_words)

    def assert_invariant(self) -> None:
        """Re-check peak_fast_words ≤ M and fast dict consistency (cheap)."""
        live = sum(a.size for a in self.fast.values())
        if live != self.fast_words:
            raise StrictAccountingError(
                f"fast-word ledger drift: tracked {self.fast_words}, live {live}"
            )
        if self.peak_fast_words > self.M:
            raise FastMemoryOverflow(
                f"peak fast words {self.peak_fast_words} exceeded M={self.M}"
            )

    def load(self, name: str, into: str | None = None, copy: bool = True) -> np.ndarray:
        """Copy a slow-memory array into fast memory; costs its size in reads.

        ``copy=False`` returns a *read-only view* of the slow array instead
        of a physical copy — same charge, same counters, but no memcpy.
        Use it for operands the algorithm only reads (the model's layers
        are still distinct: the view is immutable, so fast-side writes
        cannot alias slow memory).
        """
        arr = self.slow[name]
        self._charge_alloc(arr.size)
        if copy:
            buf = arr.copy()
        else:
            buf = arr.view()
            buf.flags.writeable = False
        self.fast[into or name] = buf
        self.words_read += arr.size
        _publish_run("load", int(arr.size), 1)
        return buf

    def load_slice(self, name: str, idx, into: str, copy: bool = True) -> np.ndarray:
        """Load a slice of a slow array (chunked streaming); costs slice size.

        ``copy=False`` as in :meth:`load`: a read-only view, no memcpy.
        """
        chunk = self.slow[name][idx]
        self._charge_alloc(chunk.size)
        if copy:
            buf = np.array(chunk)
        else:
            buf = chunk.view()
            buf.flags.writeable = False
        self.fast[into] = buf
        self.words_read += chunk.size
        _publish_run("load", int(chunk.size), 1)
        return buf

    def allocate(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Create a zeroed fast-memory buffer (no I/O, but occupies capacity)."""
        buf = np.zeros(shape, dtype=dtype)
        self._charge_alloc(buf.size)
        self.fast[name] = buf
        return buf

    def store(self, name: str, to: str | None = None) -> None:
        """Copy a fast buffer to slow memory; costs its size in writes."""
        buf = self.fast[name]
        self.slow[to or name] = buf.copy()
        self.words_written += buf.size
        _publish_run("store", int(buf.size), 1)

    def store_slice(self, name: str, to: str, idx) -> None:
        """Write a fast buffer into a slice of a slow array; costs buffer size."""
        buf = self.fast[name]
        self.slow[to][idx] = buf
        self.words_written += buf.size
        _publish_run("store", int(buf.size), 1)

    def free(self, name: str) -> None:
        """Drop a fast buffer (free: eviction of a clean/dead value)."""
        buf = self.fast.pop(name)
        self.fast_words -= buf.size

    def free_all(self) -> None:
        self.fast.clear()
        self.fast_words = 0

    # ------------------------------------------------------------------ #
    # bulk transfer runs (charged from their geometry, computed in bulk)
    # ------------------------------------------------------------------ #
    def _check_pair(self, words: int) -> None:
        """Capacity check of two transient ``words``-word buffers held at
        once (allocated in order, then released): the peak of a run whose
        first step is its largest."""
        self._charge_alloc(words)
        self._charge_alloc(words)
        self.fast_words -= 2 * words

    def stream_combination(
        self,
        sources: list[tuple[str, int, int, float]],
        dst: tuple[str, int, int],
        shape: tuple[int, int],
        budget: tuple[int, int],
    ) -> None:
        """dst block = Σ coeff·src block, streamed in ``budget`` chunks.

        ``sources`` are (slow name, row, col, coefficient) of ``shape``
        blocks, ``dst`` is (slow name, row, col); the dst block must not
        overlap a source block.  Charged exactly as the chunk loop that
        allocates an accumulator per chunk of :func:`stream_chunks`, loads
        each source's chunk into a second buffer, adds it and stores the
        accumulator: capacity checked once for the first (largest) chunk,
        counters and metrics from the closed-form chunk sizes.  The
        arithmetic runs on the slow arrays, outside :meth:`compute`, in
        the same elementwise order from a zero accumulator, so the block
        is bit-identical to the loop's.
        """
        hr, hc = shape
        self._check_pair(min(budget[0], hr) * min(budget[1], hc))
        acc, scaled = np.zeros(shape), np.empty(shape)
        for sname, sr, sc, coeff in sources:
            block = self.slow[sname][sr : sr + hr, sc : sc + hc]
            if coeff != 1.0:
                block = np.multiply(block, coeff, out=scaled)
            np.add(acc, block, out=acc)
        dname, dr, dc = dst
        self.slow[dname][dr : dr + hr, dc : dc + hc] = acc
        self.words_read += len(sources) * hr * hc
        self.words_written += hr * hc
        for words, count in _chunk_sizes(shape, budget):
            _publish_run("load", words, len(sources) * count)
            _publish_run("store", words, count)

    def tile_k_loop(
        self, a_name: str, b_name: str, into: str, i: int, j: int, b: int, qk: int
    ) -> None:
        """``fast[into] += Σ_k A[i,k]·B[k,j]`` over b×b tiles, k < ``qk``.

        Charged exactly as the loop that loads the A tile and the B tile
        of each k, multiplies them into charged scratch, adds and frees
        both: capacity checked once for one tile pair, counters and
        metrics for 2·qk loads of b² words.  The arithmetic runs on the
        slow arrays, outside :meth:`compute`: one stacked matmul of the qk
        tile pairs, then a sequential accumulate from the C tile in k order.
        """
        w = b * b
        self._check_pair(w)
        c_tile = self.fast[into]
        a_panel = self.slow[a_name][i * b : (i + 1) * b, : qk * b]
        b_panel = self.slow[b_name][: qk * b, j * b : (j + 1) * b]
        terms = np.empty((qk + 1, b, b))
        terms[0] = c_tile
        np.matmul(a_panel.reshape(b, qk, b).transpose(1, 0, 2),
                  b_panel.reshape(qk, b, b), out=terms[1:])
        c_tile[...] = np.add.accumulate(terms, axis=0)[-1]
        self.words_read += 2 * qk * w
        _publish_run("load", w, 2 * qk)

    # ------------------------------------------------------------------ #
    # compute guard (strict-mode temporary instrumentation)
    # ------------------------------------------------------------------ #
    @contextmanager
    def compute(self, scratch_words: int = 0):
        """Wrap fast-memory arithmetic; in strict mode, police temporaries.

        Out-of-core executions put *every* arithmetic step on fast buffers
        inside ``with machine.compute():``.  Outside strict mode this is
        free (a bare yield).  In strict mode the block is measured with
        :mod:`tracemalloc` (numpy routes array data through it): if the
        block's peak allocation exceeds ``scratch_words`` words +
        ``strict_slack_bytes``, some operation materialized a buffer the
        machine never charged — exactly the ``c += a @ b`` bug class — and
        :class:`StrictAccountingError` is raised.

        ``scratch_words`` declares temporaries that *are* separately
        charged (rare; prefer machine-allocated scratch buffers).
        """
        if not self.strict:
            yield
            return
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        base, _peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            _cur, peak = tracemalloc.get_traced_memory()
            if started:
                tracemalloc.stop()
        extra_bytes = peak - base - 8 * scratch_words - self.strict_slack_bytes
        if extra_bytes > 0:
            raise StrictAccountingError(
                f"strict accounting: compute block allocated ≈{peak - base} bytes "
                f"of uncharged numpy temporaries (≈{(peak - base) // 8} words; "
                f"fast_words={self.fast_words}, M={self.M}) — route the product "
                "through a charged scratch buffer (np.matmul(..., out=...))"
            )

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def mark(self) -> tuple[int, int]:
        """A position in the transfer stream, to measure a segment from."""
        return self.words_read, self.words_written

    def segment(self, mark: tuple[int, int]) -> tuple[int, int]:
        """The (reads, writes) executed since ``mark``."""
        return self.words_read - mark[0], self.words_written - mark[1]

    def replay(self, segment: tuple[int, int], label: str = "replay") -> None:
        """Charge one more copy of an executed :meth:`segment` (level replay);
        ``label`` names the REPLAY op the schedule recorder makes of it."""
        self.charge_replayed_io(*segment, 1)

    @contextmanager
    def phase(self, name: str):
        """Yield ``{"io": …}``, set on exit to the words moved inside;
        ``name`` labels the phase (the schedule recorder tags ops with it)."""
        io = {"io": 0}
        io0 = self.io_operations
        yield io
        io["io"] = self.io_operations - io0

    def charge_replayed_io(self, reads: int, writes: int, repeats: int) -> None:
        """Block-granular counter aggregation for level-replay executions.

        Adds ``repeats`` extra copies of an already-executed segment's
        (reads, writes) to the counters in O(1) — the counting analogue of
        executing ``repeats`` more isomorphic subproblems.  Peak fast-memory
        is unchanged: the replayed segments would have run one at a time
        with the same footprint as the measured one.
        """
        if reads < 0 or writes < 0 or repeats < 0:
            raise ValueError("replay charges must be non-negative")
        self.words_read += reads * repeats
        self.words_written += writes * repeats
        reg = active_registry()
        if reg is not None:
            reg.inc("machine.seq.replays")
            reg.inc("machine.seq.replay_words", int((reads + writes) * repeats))
            # Direction-split replay counters: with these, the registry is a
            # complete independent ledger of words_read/words_written even in
            # replay mode — the third counter of the differential executor
            # (repro.falsify.differential).
            reg.inc("machine.seq.replay_read_words", int(reads * repeats))
            reg.inc("machine.seq.replay_write_words", int(writes * repeats))

    def consume_ir(self, ir) -> dict:
        """Charge a lowered :class:`repro.schedule.ir.ScheduleIR` op stream.

        This is the machine as an IR interpreter: every LOAD/STORE/ALLOC/
        FREE op goes through the same capacity check, counters and registry
        publications as the physical executors' calls,
        and REPLAY expansion records route through
        :meth:`charge_replayed_io` with their span's resolved (reads,
        writes) — nested replays included, since spans resolve in
        increasing index order.  Counting-only: no arrays move, so
        ``self.fast`` stays empty (skip :meth:`assert_invariant` while a
        consumed schedule holds words).

        Returns this call's metrics delta: reads, writes, io, peak_fast,
        and per-tag I/O sums under ``"tags"`` when the IR carries phase
        tags.
        """
        from repro.schedule.ir import OpKind

        r0, w0 = self.words_read, self.words_written
        op_reads: list[int] = []
        op_writes: list[int] = []
        tag_io: dict[str, int] = {}
        for i, op in enumerate(ir.ops):
            r = w = 0
            if op.kind is OpKind.LOAD:
                self._charge_alloc(op.words)
                self.words_read += op.words
                r = op.words
                _publish_run("load", op.words, 1)
            elif op.kind is OpKind.STORE:
                self.words_written += op.words
                w = op.words
                _publish_run("store", op.words, 1)
            elif op.kind is OpKind.ALLOC:
                self._charge_alloc(op.words)
            elif op.kind is OpKind.FREE:
                if op.words > self.fast_words:
                    raise FastMemoryOverflow(
                        f"op {i}: FREE of {op.words} words with only "
                        f"{self.fast_words} resident"
                    )
                self.fast_words -= op.words
            elif op.kind is OpKind.REPLAY:
                a, b = op.span
                rr = sum(op_reads[a:b])
                ww = sum(op_writes[a:b])
                self.charge_replayed_io(rr, ww, op.repeats)
                r = rr * op.repeats
                w = ww * op.repeats
            elif op.kind is OpKind.COMPUTE:
                pass
            else:
                raise ValueError(
                    f"op {i}: {op.kind.value!r} is not a sequential-machine op"
                )
            op_reads.append(r)
            op_writes.append(w)
            if op.tag is not None and (r or w):
                tag_io[op.tag] = tag_io.get(op.tag, 0) + r + w
        reads = self.words_read - r0
        writes = self.words_written - w0
        metrics = {
            "reads": reads,
            "writes": writes,
            "io": reads + writes,
            "peak_fast": self.peak_fast_words,
        }
        if tag_io:
            metrics["tags"] = tag_io
        return metrics

    @property
    def io_operations(self) -> int:
        """Total words moved (the paper's unit-cost I/O count)."""
        return self.words_read + self.words_written

    @property
    def io_cost(self) -> float:
        """Cost under the (read_cost, write_cost) model."""
        return self.words_read * self.read_cost + self.words_written * self.write_cost

    def stats(self) -> dict[str, float]:
        return {
            "M": self.M,
            "reads": self.words_read,
            "writes": self.words_written,
            "io": self.io_operations,
            "io_cost": self.io_cost,
            "peak_fast": self.peak_fast_words,
        }
