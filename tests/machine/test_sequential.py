"""Unit tests for the sequential two-level memory machine."""

import numpy as np
import pytest

from repro.machine.sequential import (
    FastMemoryOverflow,
    SequentialMachine,
    StrictAccountingError,
)
from repro.obs.metrics import collecting
from repro.schedule.lower import _Recorder


class TestTransfers:
    def test_load_counts_words(self):
        m = SequentialMachine(M=100)
        m.place_input("A", np.ones((4, 4)))
        m.load("A")
        assert m.words_read == 16
        assert m.fast_words == 16

    def test_store_counts_words(self):
        m = SequentialMachine(M=100)
        m.allocate("buf", (3, 3))
        m.store("buf", "out")
        assert m.words_written == 9
        assert np.array_equal(m.fetch_output("out"), np.zeros((3, 3)))

    def test_load_slice(self):
        m = SequentialMachine(M=100)
        m.place_input("A", np.arange(16).reshape(4, 4))
        chunk = m.load_slice("A", np.s_[1:3, 0:2], "c")
        assert chunk.shape == (2, 2)
        assert m.words_read == 4

    def test_store_slice(self):
        m = SequentialMachine(M=100)
        m.alloc_slow("out", (4, 4))
        buf = m.allocate("b", (2, 2))
        buf += 7
        m.store_slice("b", "out", np.s_[0:2, 2:4])
        assert m.slow["out"][0, 2] == 7
        assert m.words_written == 4

    def test_free_releases_capacity(self):
        m = SequentialMachine(M=10)
        m.allocate("a", (2, 5))
        assert m.fast_words == 10
        m.free("a")
        assert m.fast_words == 0

    def test_place_input_uncounted(self):
        m = SequentialMachine(M=10)
        m.place_input("A", np.ones((100, 100)))
        assert m.io_operations == 0

    def test_loads_are_copies(self):
        """Fast buffers must not alias slow memory (the model's layers are
        distinct address spaces)."""
        m = SequentialMachine(M=100)
        m.place_input("A", np.zeros((2, 2)))
        buf = m.load("A")
        buf += 5
        assert m.slow["A"][0, 0] == 0


class TestCapacity:
    def test_overflow_raises(self):
        m = SequentialMachine(M=10)
        m.place_input("A", np.ones((4, 4)))
        with pytest.raises(FastMemoryOverflow):
            m.load("A")

    def test_exact_fit_allowed(self):
        m = SequentialMachine(M=16)
        m.place_input("A", np.ones((4, 4)))
        m.load("A")
        assert m.fast_words == 16

    def test_peak_tracked(self):
        m = SequentialMachine(M=20)
        m.allocate("a", (2, 2))
        m.allocate("b", (4, 4))
        m.free("a")
        assert m.peak_fast_words == 20

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            SequentialMachine(M=0)


class TestAccounting:
    def test_io_cost_asymmetric(self):
        m = SequentialMachine(M=100, read_cost=1.0, write_cost=3.0)
        m.place_input("A", np.ones(4))
        m.load("A")
        m.store("A", "B")
        assert m.io_operations == 8
        assert m.io_cost == 4 + 12

    def test_stats_keys(self):
        m = SequentialMachine(M=5)
        s = m.stats()
        assert set(s) == {"M", "reads", "writes", "io", "io_cost", "peak_fast"}

    def test_free_all(self):
        m = SequentialMachine(M=10)
        m.allocate("a", (2,))
        m.allocate("b", (3,))
        m.free_all()
        assert m.fast_words == 0
        assert m.fast == {}

    def test_alloc_slow_and_drop(self):
        m = SequentialMachine(M=10)
        m.alloc_slow("t", (5, 5))
        assert m.io_operations == 0
        m.drop_slow("t")
        assert "t" not in m.slow

    def test_charge_replayed_io(self):
        m = SequentialMachine(M=10)
        m.charge_replayed_io(100, 20, 6)
        assert m.words_read == 600
        assert m.words_written == 120
        assert m.peak_fast_words == 0  # replay never touches fast memory

    def test_mark_segment_replay(self):
        m = SequentialMachine(M=10)
        m.place_input("x", np.ones((2, 2)))
        mark = m.mark()
        m.load("x", "f")
        m.store("f", "y")
        m.free("f")
        seg = m.segment(mark)
        assert seg == (4, 4)
        m.replay(seg, "again")
        assert (m.words_read, m.words_written, m.peak_fast_words) == (8, 8, 4)

    def test_phase_yields_its_io(self):
        m = SequentialMachine(M=10)
        m.place_input("x", np.ones(3))
        m.load("x", "a")
        with m.phase("p") as io:
            m.load("x", "b")
            m.store("b", "y")
        assert io["io"] == 6
        assert m.io_operations == 9

    def test_charge_replayed_io_rejects_negative(self):
        m = SequentialMachine(M=10)
        with pytest.raises(ValueError):
            m.charge_replayed_io(-1, 0, 1)

    def test_assert_invariant_detects_drift(self):
        m = SequentialMachine(M=100)
        m.allocate("a", (3, 3))
        m.assert_invariant()
        m.fast_words += 1  # corrupt the ledger by hand
        with pytest.raises(StrictAccountingError):
            m.assert_invariant()

    def test_load_view_is_read_only(self):
        m = SequentialMachine(M=100)
        m.place_input("A", np.zeros((2, 2)))
        buf = m.load("A", copy=False)
        with pytest.raises(ValueError):
            buf[0, 0] = 5  # views must not let fast writes alias slow memory


class TestStrictMode:
    """The under-accounting regression: ``c += a @ b`` materializes an
    uncharged b×b product before the add.  The old executions ran exactly
    that with 3b² = M, so their true footprint was 4b² > M; strict mode
    turns the hidden temporary into an error."""

    B = 16  # 16×16 tiles: the hidden product is 2048 bytes ≫ the 1024 slack

    def _three_tiles(self, strict: bool) -> tuple:
        b = self.B
        m = SequentialMachine(M=3 * b * b, strict=strict)
        m.place_input("A", np.ones((b, b)))
        m.place_input("B", np.ones((b, b)))
        a = m.load("A", copy=False)
        bt = m.load("B", copy=False)
        c = m.allocate("C", (b, b))
        return m, a, bt, c

    def test_old_path_exceeds_m(self):
        """Regression: the pre-fix accumulate needs a 4th uncharged tile.

        With M = 3b² the three charged tiles fit exactly — but the numpy
        temporary of ``c += a @ b`` pushes the true peak to 4b² > M, which
        strict mode catches as an (accounting) overflow."""
        m, a, bt, c = self._three_tiles(strict=True)
        assert m.fast_words == m.M  # 3b² exactly: no room for a 4th tile
        with pytest.raises(FastMemoryOverflow):
            with m.compute():
                c += a @ bt  # the old, under-accounted execution

    def test_charged_scratch_is_clean(self):
        """The fixed path routes the product through a charged buffer and
        needs M ≥ 4b² — with that, strict mode passes."""
        b = self.B
        m = SequentialMachine(M=4 * b * b, strict=True)
        m.place_input("A", np.ones((b, b)))
        m.place_input("B", np.ones((b, b)))
        a = m.load("A", copy=False)
        bt = m.load("B", copy=False)
        c = m.allocate("C", (b, b))
        p = m.allocate("P", (b, b))
        with m.compute():
            np.matmul(a, bt, out=p)
            np.add(c, p, out=c)
        assert np.array_equal(c, np.full((b, b), float(b)))
        m.assert_invariant()

    def test_non_strict_ignores_temporaries(self):
        m, a, bt, c = self._three_tiles(strict=False)
        with m.compute():
            c += a @ bt  # uncharged, but non-strict mode does not instrument
        assert c[0, 0] == self.B

    def test_scratch_words_declares_charged_buffers(self):
        b = self.B
        m = SequentialMachine(M=4 * b * b, strict=True)
        a = m.allocate("a", (b, b))
        with m.compute(scratch_words=b * b):
            _ = a @ a  # temporary is declared, so the block is clean


# --------------------------------------------------------------------- #
# bulk transfer runs against their per-chunk loops
# --------------------------------------------------------------------- #
def _oracle_stream(machine, sources, dst, shape, budget):
    """The per-chunk loop :meth:`SequentialMachine.stream_combination`
    replaces: one accumulator per chunk, one loaded source chunk at a time."""
    hr, hc = shape
    rows_budget, cols_budget = budget
    dname, dr, dc = dst
    r = 0
    while r < hr:
        rows = min(rows_budget, hr - r)
        c = 0
        while c < hc:
            cols = min(cols_budget, hc - c)
            acc = machine.allocate("_acc", (rows, cols))
            for sname, sr, sc, coeff in sources:
                chunk = machine.load_slice(
                    sname,
                    np.s_[sr + r : sr + r + rows, sc + c : sc + c + cols],
                    "_src",
                )
                with machine.compute():
                    if coeff != 1.0:
                        np.multiply(chunk, coeff, out=chunk)
                    np.add(acc, chunk, out=acc)
                machine.free("_src")
            machine.store_slice(
                "_acc", dname, np.s_[dr + r : dr + r + rows, dc + c : dc + c + cols]
            )
            machine.free("_acc")
            c += cols
        r += rows


def _oracle_tiles(machine, a_name, b_name, into, i, j, b, qk):
    """The per-k loop :meth:`SequentialMachine.tile_k_loop` replaces, with
    the product routed through the charged scratch tile ``Pt``."""
    c_tile, p_tile = machine.fast[into], machine.fast["Pt"]
    for k in range(qk):
        a = machine.load_slice(
            a_name, np.s_[i * b : (i + 1) * b, k * b : (k + 1) * b], "At",
            copy=False,
        )
        bt = machine.load_slice(
            b_name, np.s_[k * b : (k + 1) * b, j * b : (j + 1) * b], "Bt",
            copy=False,
        )
        with machine.compute():
            np.matmul(a, bt, out=p_tile)
            np.add(c_tile, p_tile, out=c_tile)
        machine.free("At")
        machine.free("Bt")


def _operand(rng, shape):
    """Random values with signed zeros mixed in (the bulk sums must keep
    the loop's sign of zero)."""
    x = rng.standard_normal(shape)
    x.flat[::5] = 0.0
    x.flat[1::7] = -0.0
    return x


def _observed(machine, run):
    """(counters, registry snapshot) of ``run(machine)``."""
    with collecting() as reg:
        run(machine)
    counters = (machine.words_read, machine.words_written,
                machine.peak_fast_words, machine.fast_words)
    return counters, reg.to_dict()


def _budget(shape, M):
    """stream_linear_combination's chunk budget."""
    chunk_words = M // 2
    hc = shape[1]
    return max(1, chunk_words // hc), hc if chunk_words >= hc else chunk_words


COEFFS = (1.0, -1.0, 0.5, -1.0)
STREAM_CASES = [
    # (M, block shape): one chunk, ragged row tail, column chunking with a
    # column tail, both tails, single-row chunks
    (48, (6, 4)),
    (48, (10, 4)),
    (16, (3, 11)),
    (30, (5, 20)),
    (12, (4, 7)),
]


class TestBulkStream:
    def _setup(self, machine, rng, nsrc):
        machine.place_input("X", _operand(rng, (24, 48)))
        machine.place_input("Y", _operand(rng, (24, 48)))
        machine.alloc_slow("D", (24, 48))
        offsets = [("X", 0, 0), ("Y", 2, 3), ("X", 12, 20), ("Y", 1, 25)]
        return [(name, r, c, COEFFS[q]) for q, (name, r, c) in
                enumerate(offsets[:nsrc])]

    @pytest.mark.parametrize("nsrc", [1, 2, 3, 4])
    @pytest.mark.parametrize("M,shape", STREAM_CASES)
    def test_matches_chunk_loop(self, M, shape, nsrc):
        budget = _budget(shape, M)
        runs = []
        for bulk in (False, True):
            m = SequentialMachine(M)
            sources = self._setup(m, np.random.default_rng(3), nsrc)
            call = SequentialMachine.stream_combination if bulk else _oracle_stream
            run = lambda mm: call(mm, sources, ("D", 4, 5), shape, budget)
            runs.append((*_observed(m, run), m.slow["D"].tobytes()))
        assert runs[1] == runs[0]
        assert runs[0][1]["counters"]["machine.seq.loads"]  # transfers were published

    @pytest.mark.parametrize("short_by", [1, None])
    @pytest.mark.parametrize("M,shape", STREAM_CASES)
    def test_overflow_message_matches(self, M, shape, short_by):
        budget = _budget(shape, M)
        first = min(budget[0], shape[0]) * min(budget[1], shape[1])
        # one word short of room for the source chunk, or for the accumulator
        preload = M - 2 * first + 1 if short_by else M - first + 1
        messages = []
        for bulk in (False, True):
            m = SequentialMachine(M)
            sources = self._setup(m, np.random.default_rng(3), 2)
            m.allocate("held", (preload,))
            call = SequentialMachine.stream_combination if bulk else _oracle_stream
            with pytest.raises(FastMemoryOverflow) as err:
                call(m, sources, ("D", 0, 0), shape, budget)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("M,shape", STREAM_CASES)
    def test_recorder_expands_to_the_loop_ops(self, M, shape):
        budget = _budget(shape, M)
        ops = []
        for bulk in (False, True):
            rec = _Recorder(M, [])
            sources = self._setup(rec, np.random.default_rng(3), 3)
            call = _Recorder.stream_combination if bulk else _oracle_stream
            call(rec, sources, ("D", 0, 0), shape, budget)
            ops.append(rec.ops)
        assert ops[1] == ops[0]


class TestBulkTiles:
    def _setup(self, machine, b, qk):
        rng = np.random.default_rng(5)
        machine.place_input("A", _operand(rng, (2 * b, qk * b)))
        machine.place_input("B", _operand(rng, (qk * b, 2 * b)))
        machine.allocate("Pt", (b, b))
        machine.allocate("Ct", (b, b))

    @pytest.mark.parametrize("qk", [1, 3])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_matches_k_loop(self, b, qk):
        runs = []
        for bulk in (False, True):
            m = SequentialMachine(4 * b * b)
            self._setup(m, b, qk)
            call = SequentialMachine.tile_k_loop if bulk else _oracle_tiles
            run = lambda mm: call(mm, "A", "B", "Ct", 1, 0, b, qk)
            runs.append((*_observed(m, run), m.fast["Ct"].tobytes()))
        assert runs[1] == runs[0]
        assert runs[0][1]["counters"]["machine.seq.loads"] == 2 * qk

    @pytest.mark.parametrize("qk", [1, 3])
    def test_overflow_message_matches(self, qk):
        b = 2
        messages = []
        for bulk in (False, True):
            m = SequentialMachine(4 * b * b)
            self._setup(m, b, qk)
            m.allocate("held", (1,))  # one word short of room for the B tile
            call = SequentialMachine.tile_k_loop if bulk else _oracle_tiles
            with pytest.raises(FastMemoryOverflow) as err:
                call(m, "A", "B", "Ct", 0, 1, b, qk)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("qk", [1, 3])
    def test_recorder_expands_to_the_loop_ops(self, qk):
        b = 2
        ops = []
        for bulk in (False, True):
            rec = _Recorder(4 * b * b, [])
            self._setup(rec, b, qk)
            call = _Recorder.tile_k_loop if bulk else _oracle_tiles
            call(rec, "A", "B", "Ct", 1, 1, b, qk)
            ops.append(rec.ops)
        assert ops[1] == ops[0]
