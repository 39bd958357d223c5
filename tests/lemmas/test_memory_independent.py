"""Tests for the memory-independent half of Theorem 1.1 (parallel audit)."""

import pytest

from repro.lemmas.memory_independent import check_memory_independent


class TestMemoryIndependentAudit:
    @pytest.mark.parametrize("n,P", [(16, 7), (32, 49)])
    def test_premise_and_shape(self, strassen_alg, n, P):
        audit = check_memory_independent(strassen_alg, n, P)
        assert audit.premise_exact     # each proc computes exactly r² outputs
        assert audit.shape_holds       # comm within a constant of n²/P^{2/ω₀}
        assert audit.floor_holds       # comm clears the Lemma 3.6 floor

    def test_positive_floor_case(self, strassen_alg):
        """At P = 343 the Lemma 3.6 floor r²/2 − 2n²/P turns positive and
        the measured communication clears it."""
        audit = check_memory_independent(strassen_alg, 64, 343)
        assert audit.lemma36_floor > 0
        assert audit.floor_holds

    def test_r_matches_local_problem(self, strassen_alg):
        """With P = 7^k, the proof's r = n/P^{1/ω₀} equals the BFS local
        problem side exactly — the pigeonhole premise with equality."""
        audit = check_memory_independent(strassen_alg, 32, 49)
        assert audit.r == pytest.approx(8.0)
        assert audit.outputs_per_processor == 64

    def test_winograd_too(self, winograd_alg):
        audit = check_memory_independent(winograd_alg, 16, 7)
        assert audit.premise_exact and audit.shape_holds

    def test_p1_trivial(self, strassen_alg):
        audit = check_memory_independent(strassen_alg, 16, 1)
        assert audit.measured_comm_max == 0
