"""Tests for the leading-constant extraction."""

import pytest

from repro.bounds.constants import leading_constant_series


class TestLeadingConstants:
    def test_converges(self, strassen_alg):
        sizes = [2 ** k for k in range(6, 13)]
        cs = leading_constant_series(strassen_alg, sizes, 48)
        assert cs.relative_step < 0.01
        assert cs.monotone

    def test_winograd_above_strassen(self, strassen_alg, winograd_alg):
        """More non-zeros in (U,V,W) ⇒ larger streamed-I/O constant."""
        sizes = [2 ** k for k in range(6, 12)]
        ks = leading_constant_series(strassen_alg, sizes, 48)
        kw = leading_constant_series(winograd_alg, sizes, 48)
        assert kw.last > ks.last

    def test_constant_band(self, strassen_alg):
        """The DFS executor's constant at M=48 sits in a fixed band (a
        regression anchor for the executor's accounting)."""
        cs = leading_constant_series(strassen_alg, [4096], 48)
        assert 30.0 < cs.last < 35.0

    def test_constant_depends_on_m_alignment(self, strassen_alg):
        """κ varies with how √(M/3) aligns to the power-of-two cutoff —
        the reason the Ω-vs-measured ratio is constant only per M."""
        k48 = leading_constant_series(strassen_alg, [4096], 48).last
        k75 = leading_constant_series(strassen_alg, [4096], 75).last
        # M=48: cutoff 4 = √(48/3) exactly; M=75: √25=5 misses the
        # power-of-two grid → larger κ
        assert k75 > k48 * 1.1
        # while 4× the memory with the same alignment keeps κ (≈ scale-free)
        k192 = leading_constant_series(strassen_alg, [4096], 192).last
        assert k192 == pytest.approx(k48, rel=0.02)
