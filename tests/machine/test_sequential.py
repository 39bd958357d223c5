"""Unit tests for the sequential two-level memory machine."""

import numpy as np
import pytest

from repro.machine.sequential import (
    FastMemoryOverflow,
    SequentialMachine,
    StrictAccountingError,
)


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
