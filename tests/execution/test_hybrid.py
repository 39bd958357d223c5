"""Unit tests for the hybrid fast/classical executor (docs/hybrid.md)."""

from math import gcd

import numpy as np
import pytest

from repro.algorithms.bilinear import recursion_shape
from repro.execution.classical_tiled import execute_tiled
from repro.execution.hybrid import (
    HYBRID_LEAVES,
    execute_hybrid,
    hybrid_depth,
    largest_leaf_tile,
    resident_block,
)
from repro.execution.recursive_bilinear import execute_recursive_bilinear
from repro.machine.sequential import SequentialMachine
from repro.zoo import load_algorithm


class TestLeafGeometry:
    @pytest.mark.parametrize(
        "shape,M,expected",
        [((16, 16, 16), 48, 2), ((16, 16, 16), 192, 4), ((16, 8, 16), 256, 8),
         ((25, 4, 4), 64, 1), ((15, 9, 6), 108, 3)],
    )
    def test_largest_leaf_tile(self, shape, M, expected):
        assert largest_leaf_tile(shape, M) == expected

    @pytest.mark.parametrize(
        "R,C,M,b",
        [(16, 16, 289, 16), (16, 16, 288, 8), (16, 16, 82, 8), (32, 16, 305, 16)],
    )
    def test_resident_block_footprint(self, R, C, M, b):
        got_b, cw = resident_block(R, C, M)
        assert got_b == b
        assert (b + 1) * (b + 1) <= M
        assert 1 <= cw <= b

    def test_leaf_geometry_matches_a_full_divisor_scan(self):
        """The scans start at √M instead of gcd: same answers, and a huge
        shape costs no more than a small one."""
        def scan(g, fits):
            return max(b for b in range(1, g + 1) if g % b == 0 and fits(b))

        for R, K, C in [(16, 16, 16), (15, 9, 6), (25, 4, 4), (64, 32, 48),
                        (49, 49, 49), (27, 27, 9)]:
            g = gcd(gcd(R, K), C)
            for M in range(3, 300):
                tile = scan(g, lambda b: 4 * b * b <= M or b == 1)
                assert largest_leaf_tile((R, K, C), M) == tile
                if M >= 4:
                    block = scan(gcd(R, C), lambda b: (b + 1) ** 2 <= M or b == 1)
                    assert resident_block(R, C, M)[0] == block
        assert largest_leaf_tile((2**40,) * 3, 48) == 2
        assert resident_block(2**40, 2**40, 48) == (4, 4)

    def test_hybrid_depth_square(self, strassen_alg):
        # splits until cache fit: 3·16²=768 > 48, 3·8²=192 > 48, 3·4²=48 ≤ 48
        assert hybrid_depth(strassen_alg, 16, 48) == 2
        assert hybrid_depth(strassen_alg, 16, 768) == 0
        assert hybrid_depth(strassen_alg, (8, 8, 8), 48) == 1


class TestCorrectness:
    @pytest.mark.parametrize("leaf", HYBRID_LEAVES)
    @pytest.mark.parametrize("n,M,cutoff", [(8, 48, 0), (16, 48, 1), (16, 48, 2),
                                            (32, 108, 2)])
    def test_square_product(self, rng, strassen_alg, n, M, cutoff, leaf):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        m = SequentialMachine(M)
        C = execute_hybrid(m, strassen_alg, A, B, cutoff, leaf=leaf)
        assert np.allclose(C, A @ B)

    @pytest.mark.parametrize("leaf", HYBRID_LEAVES)
    def test_rectangular_product(self, rng, leaf):
        """⟨5,2,2;18⟩ splits (25,4,4) → (5,2,2); the leaves then tile the
        rectangular sub-problems a pure-fast recursion would reject."""
        alg = load_algorithm("grey-522-18")
        A = rng.standard_normal((25, 4))
        B = rng.standard_normal((4, 4))
        m = SequentialMachine(64)
        C = execute_hybrid(m, alg, A, B, 1, leaf=leaf)
        assert np.allclose(C, A @ B)

    def test_capacity_never_violated(self, rng, strassen_alg):
        for leaf in HYBRID_LEAVES:
            m = SequentialMachine(48)
            execute_hybrid(m, strassen_alg, rng.standard_normal((16, 16)),
                           rng.standard_normal((16, 16)), 1, leaf=leaf)
            assert m.peak_fast_words <= 48


class TestAnchors:
    def test_cutoff_zero_word_identical_to_tiled(self, rng, strassen_alg):
        """ℓ=0 on a square problem exceeding fast memory IS execute_tiled."""
        n, M = 16, 48
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        ref = SequentialMachine(M)
        execute_tiled(ref, A, B)
        m = SequentialMachine(M)
        execute_hybrid(m, strassen_alg, A, B, 0, leaf="tiled")
        assert m.words_read == ref.words_read
        assert m.words_written == ref.words_written
        assert m.peak_fast_words == ref.peak_fast_words

    @pytest.mark.parametrize("leaf", HYBRID_LEAVES)
    def test_deep_cutoff_word_identical_to_recursive(self, rng, strassen_alg, leaf):
        n, M = 16, 48
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        ref = SequentialMachine(M)
        execute_recursive_bilinear(ref, strassen_alg, A, B)
        depth = hybrid_depth(strassen_alg, n, M)
        m = SequentialMachine(M)
        execute_hybrid(m, strassen_alg, A, B, depth, leaf=leaf)
        assert m.words_read == ref.words_read
        assert m.words_written == ref.words_written
        assert m.peak_fast_words == ref.peak_fast_words

    def test_resident_leaf_attains_smith_reads(self, rng):
        """At cutoff 0 with (b+1)² ≤ M the resident leaf reads exactly
        2·n³/b words — the Smith et al. 2n³/√M constant."""
        n, M = 16, 289  # b = 16... no: 3n² = 768 > 289, (16+1)² = 289 fits
        alg = load_algorithm("strassen")
        b, _ = resident_block(n, n, M)
        m = SequentialMachine(M)
        execute_hybrid(m, alg, rng.standard_normal((n, n)),
                       rng.standard_normal((n, n)), 0, leaf="resident")
        assert m.words_read == 2 * n**3 // b
        assert m.words_written == n * n


class TestReplay:
    @pytest.mark.parametrize("leaf", HYBRID_LEAVES)
    @pytest.mark.parametrize("cutoff", [0, 1, 2])
    def test_level_replay_counters_match_full(self, rng, strassen_alg, cutoff, leaf):
        n, M = 16, 48
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        full = SequentialMachine(M)
        execute_hybrid(full, strassen_alg, A, B, cutoff, leaf=leaf)
        rep = SequentialMachine(M)
        out = execute_hybrid(rep, strassen_alg, A, B, cutoff, leaf=leaf,
                             level_replay=True)
        assert out is None
        assert rep.words_read == full.words_read
        assert rep.words_written == full.words_written
        assert rep.peak_fast_words == full.peak_fast_words

    def test_cross_check_passes_on_real_executor(self, rng, strassen_alg):
        m = SequentialMachine(48)
        execute_hybrid(m, strassen_alg, rng.standard_normal((16, 16)),
                       rng.standard_normal((16, 16)), 1, leaf="resident",
                       level_replay=True, cross_check=True)


class TestValidation:
    def test_negative_cutoff_rejected(self, rng, strassen_alg):
        with pytest.raises(ValueError, match="non-negative"):
            execute_hybrid(SequentialMachine(48), strassen_alg,
                           rng.standard_normal((8, 8)),
                           rng.standard_normal((8, 8)), -1)

    def test_unknown_leaf_rejected(self, rng, strassen_alg):
        with pytest.raises(ValueError, match="leaf"):
            execute_hybrid(SequentialMachine(48), strassen_alg,
                           rng.standard_normal((8, 8)),
                           rng.standard_normal((8, 8)), 0, leaf="mosaic")

    def test_nonconforming_operands_rejected(self, rng, strassen_alg):
        with pytest.raises(ValueError):
            execute_hybrid(SequentialMachine(48), strassen_alg,
                           rng.standard_normal((8, 4)),
                           rng.standard_normal((8, 8)), 0)

    def test_square_alg_rejects_rectangular_above_cutoff(self, rng, strassen_alg):
        with pytest.raises(ValueError, match="square"):
            execute_hybrid(SequentialMachine(48), strassen_alg,
                           rng.standard_normal((8, 4)),
                           rng.standard_normal((4, 8)), 1)

    def test_recursion_shape_consistency(self, strassen_alg):
        assert recursion_shape(strassen_alg, 16) == (16, 16, 16)
