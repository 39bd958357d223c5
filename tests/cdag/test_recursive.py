"""Unit tests for the recursive H^{n×n} builder (Figures 1–3 substrate)."""

import numpy as np
import pytest

from repro.cdag.base import base_case_cdag
from repro.cdag.recursive import build_recursive_cdag


class TestBaseCase:
    def test_base_census(self, strassen_alg):
        base = base_case_cdag(strassen_alg)
        c = base.census()
        assert c["inputs"] == 8
        assert c["outputs"] == 4
        # 8 in + 7 ahat + 7 bhat + 7 mult + 4 out = 33
        assert c["vertices"] == 33

    def test_base_tree_fan_in(self, winograd_alg):
        base = base_case_cdag(winograd_alg, style="tree")
        assert base.max_fan_in() <= 2
        assert len(base.outputs) == 4

    def test_mult_vertices_have_two_preds(self, strassen_alg):
        base = base_case_cdag(strassen_alg)
        mults = [
            v for v in base.graph.vertices() if str(base.label(v)).startswith("m")
        ]
        assert len(mults) == 7
        for v in mults:
            assert base.graph.in_degree(v) == 2


class TestRecursiveStructure:
    def test_h2_equals_base_shape(self, strassen_alg):
        H = build_recursive_cdag(strassen_alg, 2)
        base = base_case_cdag(strassen_alg)
        assert H.cdag.num_vertices == base.num_vertices
        assert H.cdag.num_edges == base.num_edges

    def test_vertex_growth_rate(self, strassen_alg):
        """V(H^{2n}) ≈ 7·V(H^n): the Θ(n^{log₂7}) growth."""
        v4 = build_recursive_cdag(strassen_alg, 4).cdag.num_vertices
        v8 = build_recursive_cdag(strassen_alg, 8).cdag.num_vertices
        assert 6.0 < v8 / v4 < 8.0

    def test_input_output_counts(self, H8):
        assert len(H8.a_inputs) == 64
        assert len(H8.b_inputs) == 64
        assert len(H8.c_outputs) == 64

    def test_subproblem_registry_sizes(self, H8):
        assert H8.num_subproblems(8) == 1
        assert H8.num_subproblems(4) == 7
        assert H8.num_subproblems(2) == 49
        assert H8.num_subproblems(1) == 343

    def test_mult_vertices(self, H8):
        mults = H8.mult_vertices
        assert len(mults) == 343
        for v in mults[:20]:
            assert H8.cdag.graph.in_degree(v) == 2

    def test_sub_inputs_top_level(self, H8):
        a_ids, b_ids = H8.sub_inputs[8][0]
        assert a_ids == H8.a_inputs
        assert b_ids == H8.b_inputs

    def test_outputs_have_no_successors_at_top(self, H4):
        for v in H4.c_outputs:
            assert H4.cdag.graph.out_degree(v) == 0

    def test_sub_outputs_internal_levels_have_successors(self, H4):
        # size-2 subproblem outputs feed the top decoder
        for outs in H4.sub_outputs[2]:
            assert any(H4.cdag.graph.out_degree(v) > 0 for v in outs)

    def test_tree_style_fan_in(self, H8_tree):
        assert H8_tree.cdag.max_fan_in() <= 2

    def test_tree_and_bipartite_same_registry_counts(self, strassen_alg):
        Hb = build_recursive_cdag(strassen_alg, 4)
        Ht = build_recursive_cdag(strassen_alg, 4, style="tree")
        for r in (4, 2, 1):
            assert Hb.num_subproblems(r) == Ht.num_subproblems(r)

    def test_rejects_non_power(self, strassen_alg):
        with pytest.raises(ValueError):
            build_recursive_cdag(strassen_alg, 6)

    def test_rectangular_registry_shapes(self):
        """⟨2,3,4⟩ at n=4: two levels, tuple-keyed rectangular registries."""
        from repro.algorithms.classical import classical

        alg = classical(2, 3, 4)
        H = build_recursive_cdag(alg, 4)
        assert len(H.a_inputs) == 4 * 9
        assert len(H.b_inputs) == 9 * 16
        assert len(H.c_outputs) == 4 * 16
        assert H.num_subproblems((4, 9, 16)) == 1
        assert H.num_subproblems((2, 3, 4)) == alg.t
        assert H.num_subproblems(1) == alg.t**2

    def test_rectangular_rejects_non_power_rows(self):
        from repro.algorithms.classical import classical

        with pytest.raises(ValueError):
            build_recursive_cdag(classical(2, 3, 4), 6)

    def test_rejects_unknown_style(self, strassen_alg):
        with pytest.raises(ValueError):
            build_recursive_cdag(strassen_alg, 4, style="odd")


class TestSubSpans:
    """The Lemma 2.2 substrate for memoized scheduling: every SUB_H of one
    shape occupies a contiguous id span and is vertex-for-vertex isomorphic
    to its siblings (the builder emits them by identical insertion
    sequences)."""

    def test_spans_align_with_registries(self, H4):
        for key, spans in H4.sub_spans.items():
            assert len(spans) == len(H4.sub_inputs[key])
            assert len(spans) == len(H4.sub_outputs[key])
            for start, end in spans:
                assert 0 <= start < end <= H4.cdag.num_vertices

    def test_same_shape_spans_have_equal_length(self, H4):
        for key, spans in H4.sub_spans.items():
            lengths = {end - start for start, end in spans}
            assert len(lengths) == 1, (key, spans)

    def test_spans_disjoint_within_key(self, H4):
        for key, spans in H4.sub_spans.items():
            ordered = sorted(spans)
            for (s1, e1), (s2, _) in zip(ordered, ordered[1:]):
                assert e1 <= s2

    def test_sub_vertex_map_covers_local_cdag(self, H4):
        for key in H4.sub_spans:
            local, to_global = H4.sub_cdag(key, 0)
            assert len(to_global) == local.num_vertices
            assert to_global == H4.sub_vertex_map(key, 0)

    @pytest.mark.parametrize("style", ["bipartite", "tree"])
    def test_siblings_are_isomorphic(self, strassen_alg, style):
        H = build_recursive_cdag(strassen_alg, 4, style=style)
        for key, spans in H.sub_spans.items():
            local0, _ = H.sub_cdag(key, 0)
            edges0 = sorted(local0.graph.edges())
            for i in range(1, len(spans)):
                local_i, _ = H.sub_cdag(key, i)
                assert local_i.num_vertices == local0.num_vertices
                assert sorted(local_i.graph.edges()) == edges0
                assert local_i.inputs == local0.inputs
                assert local_i.outputs == local0.outputs

    def test_sibling_isomorphism_rectangular(self):
        from repro.engine.runners import resolve_algorithm

        H = build_recursive_cdag(resolve_algorithm("grey-522-18"), 25)
        key = max(
            (k for k, v in H.sub_spans.items() if len(v) >= 2),
            key=lambda k: H.sub_spans[k][0][1] - H.sub_spans[k][0][0],
        )
        local0, _ = H.sub_cdag(key, 0)
        local1, _ = H.sub_cdag(key, 1)
        assert sorted(local0.graph.edges()) == sorted(local1.graph.edges())

    def test_translated_edges_exist_globally(self, H4):
        """Every local edge, pushed through the sibling's vertex map, is a
        real edge of the global CDAG."""
        for key, spans in H4.sub_spans.items():
            local, _ = H4.sub_cdag(key, 0)
            for i in range(len(spans)):
                to_global = H4.sub_vertex_map(key, i)
                for u, v in local.graph.edges():
                    gu, gv = to_global[u], to_global[v]
                    assert gv in H4.cdag.graph.successors(gu)


class TestSemantics:
    def test_cdag_computes_matmul_symbolically(self, strassen_alg):
        """Evaluate the CDAG bottom-up; outputs must equal A·B exactly.

        The CDAG is data, not code — this test *interprets* it: encoder
        vertices as signed sums (coefficients recovered from U/V/W), mult
        vertices as products.  This pins the graph to the algorithm.
        """
        H = build_recursive_cdag(strassen_alg, 4)
        rng = np.random.default_rng(0)
        A = rng.integers(-5, 5, (4, 4)).astype(object)
        B = rng.integers(-5, 5, (4, 4)).astype(object)
        # interpret by replaying the recursion in lock-step with the builder
        values: dict[int, object] = {}
        for idx, v in enumerate(H.a_inputs):
            values[v] = A[idx // 4, idx % 4]
        for idx, v in enumerate(H.b_inputs):
            values[v] = B[idx // 4, idx % 4]

        alg = strassen_alg
        order = H.cdag.topological_order()
        g = H.cdag.graph
        mult_set = set(H.mult_vertices)
        for v in order:
            if v in values:
                continue
            preds = g.predecessors(v)
            if v in mult_set:
                values[v] = values[preds[0]] * values[preds[1]]
            else:
                # linear vertex: coefficients live in the label-free builder;
                # recover via the coefficient matrices by label prefix
                label = str(H.cdag.label(v))
                if label.startswith("Ahat"):
                    l = int(label.split(".")[-1].split("[")[0])
                    coeffs = alg.U[l]
                elif label.startswith("Bhat"):
                    l = int(label.split(".")[-1].split("[")[0])
                    coeffs = alg.V[l]
                else:  # C decoder
                    q = int(label.split(".")[-1].split("[")[0])
                    coeffs = alg.W[q]
                nz = [c for c in coeffs if c != 0]
                assert len(nz) == len(preds)
                values[v] = sum(int(c) * values[p] for c, p in zip(nz, preds))
        C = np.empty((4, 4), dtype=object)
        for idx, v in enumerate(H.c_outputs):
            C[idx // 4, idx % 4] = values[v]
        assert np.array_equal(C.astype(np.int64), (A @ B).astype(np.int64))
