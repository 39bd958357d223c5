"""Tests for the dominator/path lemmas (3.7, 3.10, 3.11)."""

import numpy as np
import pytest

from repro.cdag.recursive import build_recursive_cdag
from repro.lemmas.lemma310 import check_lemma310, disjoint_union_cdag, undominated_inputs
from repro.lemmas.lemma311 import check_lemma311, lemma311_instance
from repro.lemmas.lemma37 import (
    check_lemma37,
    exhaustive_lemma37,
    min_dominator_of_outputs,
)


class TestLemma37:
    def test_sampled_h4_r2(self, H4):
        rep = check_lemma37(H4, 2, samples=40)
        assert rep["checked"] > 40

    def test_sampled_h8_r2(self, H8):
        check_lemma37(H8, 2, samples=25)

    def test_sampled_h8_r4(self, H8):
        check_lemma37(H8, 4, samples=10)

    def test_exhaustive_slice_h4(self, H4):
        """First 3000 of the C(28,4) subsets, exactly."""
        assert exhaustive_lemma37(H4, 2, limit=3000) == 3000

    def test_winograd_cdag_too(self, winograd_alg):
        H = build_recursive_cdag(winograd_alg, 4)
        check_lemma37(H, 2, samples=15)

    def test_min_dominator_single_subproblem(self, H4):
        """A whole size-2 subproblem's 4 outputs: dominator ≥ 2; and the
        4 encoded inputs of that subproblem dominate it, so ≤ 8."""
        Z = H4.sub_outputs[2][0]
        dom = min_dominator_of_outputs(H4, Z)
        assert 2 <= dom <= 8

    def test_whole_output_set(self, H4):
        """Z = all 16 top outputs: dominator ≥ 8 (Lemma 3.7 with r = n)."""
        dom = min_dominator_of_outputs(H4, H4.c_outputs)
        assert dom >= 8


class TestLemma37ProofRoute:
    """The paper's contradiction argument, executed step by step."""

    def test_h4(self, H4):
        from repro.lemmas.lemma37 import check_lemma37_proof_route

        assert check_lemma37_proof_route(H4, 2, samples=20) == 20

    def test_h8(self, H8):
        from repro.lemmas.lemma37 import check_lemma37_proof_route

        assert check_lemma37_proof_route(H8, 2, samples=8) == 8

    def test_surplus_quantities_reported(self, H4):
        """The quantitative step: 2r√(|Z|−2|Γ′|) − |Γ∖Γ′| ≥ 1 for the
        sampled instances (implicitly asserted inside the checker)."""
        from repro.lemmas.lemma37 import check_lemma37_proof_route

        # different seeds exercise different Γ/Z mixes
        for seed in (1, 2, 3):
            check_lemma37_proof_route(H4, 2, samples=10, seed=seed)


@pytest.mark.slow
class TestLemma37Exhaustive:
    def test_full_enumeration_h4_r2(self, H4):
        """All C(28,4) = 20475 subsets — the lemma, with no sampling."""
        assert exhaustive_lemma37(H4, 2) == 20475


class TestLemma310:
    def test_sampled(self, strassen_alg):
        assert check_lemma310(strassen_alg, n=2, q=4, samples=80) == 80

    def test_larger_copies(self, strassen_alg):
        assert check_lemma310(strassen_alg, n=4, q=2, samples=25) == 25

    def test_disjoint_union_structure(self, strassen_alg):
        H = build_recursive_cdag(strassen_alg, 2).cdag
        union, ins, outs = disjoint_union_cdag([H, H, H])
        assert union.num_vertices == 3 * H.num_vertices
        assert len(ins) == 3
        assert not (set(ins[0]) & set(ins[1]))

    def test_undominated_inputs_empty_gamma(self, strassen_alg):
        H = build_recursive_cdag(strassen_alg, 2).cdag
        got = undominated_inputs(H, set(), H.outputs)
        assert set(got) == set(H.inputs)  # everything reaches the outputs

    def test_undominated_inputs_full_gamma(self, strassen_alg):
        H = build_recursive_cdag(strassen_alg, 2).cdag
        got = undominated_inputs(H, set(H.outputs), H.outputs)
        assert got == []


class TestLemma311:
    def test_sampled_h4(self, H4):
        results = check_lemma311(H4, 2, samples=25)
        assert all(inst.holds for inst in results)

    def test_sampled_h8_r2(self, H8):
        results = check_lemma311(H8, 2, samples=10)
        assert all(inst.holds for inst in results)

    def test_sampled_h8_r4(self, H8):
        check_lemma311(H8, 4, samples=8)

    def test_empty_gamma_floor(self, H4):
        """Γ = ∅, Z = one whole subproblem: floor = 2r·√(r²) = 2r²; the
        instance must provide at least that many disjoint paths."""
        Z = H4.sub_outputs[2][0]
        inst = lemma311_instance(H4, 2, Z, [])
        assert inst.floor == pytest.approx(2 * 2 * 2)
        assert inst.disjoint_paths >= 8

    def test_heavy_gamma_trivial_floor(self, H4):
        """|Γ| ≥ |Z|/2 makes the floor 0 — vacuously holds."""
        Z = H4.sub_outputs[2][0]
        gamma = H4.sub_outputs[1][:2]  # two mult vertices
        inst = lemma311_instance(H4, 2, Z, [g[0] for g in gamma])
        assert inst.floor == 0.0
        assert inst.holds

    def test_figure3_instance_h8(self, H8):
        """Figure 3's construction: Z = two whole size-2 subproblems,
        Γ = one multiplication vertex."""
        Z = H8.sub_outputs[2][0] + H8.sub_outputs[2][1]
        assert lemma311_instance(H8, 2, Z, [H8.sub_outputs[1][0][0]]).holds

    @pytest.mark.parametrize("g_size", [0, 2, 4, 6, 8])
    def test_slack_as_gamma_grows_h8(self, H8, g_size):
        """|Z| = 16 fixed; the path count clears the floor as |Γ| → |Z|/2."""
        Z = [out for sub in H8.sub_outputs[2][:4] for out in sub]
        mult_pool = [m[0] for m in H8.sub_outputs[1]]
        rng = np.random.default_rng(g_size)
        gamma = list(rng.choice(mult_pool, size=g_size, replace=False))
        inst = lemma311_instance(H8, 2, Z, gamma)
        assert inst.disjoint_paths >= inst.floor
