"""Unit tests for the Hong–Kung S-partition and Savage S-span machinery."""

import time

import pytest

from repro.cdag.core import CDAG
from repro.cdag.families import (
    binary_tree_cdag,
    diamond_chain_cdag,
    recompute_wins_cdag,
)
from repro.graphs.digraph import DiGraph
from repro.pebbling.hong_kung import hong_kung_lower_bound, min_s_partition_parts
from repro.pebbling.optimal import optimal_io
from repro.pebbling.span import s_span, savage_lower_bound


def path_cdag(k: int) -> CDAG:
    g = DiGraph()
    g.add_vertices(k)
    for i in range(k - 1):
        g.add_edge(i, i + 1)
    return CDAG(g, [0], [k - 1], name=f"path{k}")


class TestSPartition:
    def test_path_one_part_when_s_big(self):
        c = path_cdag(5)
        assert min_s_partition_parts(c, 5) == 1

    def test_path_parts_grow_as_s_shrinks(self):
        c = path_cdag(8)
        p_small = min_s_partition_parts(c, 2)
        p_big = min_s_partition_parts(c, 4)
        assert p_small >= p_big >= 1

    def test_too_small_s_raises(self):
        c = binary_tree_cdag(2)  # 4 leaves: any part containing the root's
        with pytest.raises(ValueError):
            min_s_partition_parts(c, 0)

    def test_size_guard(self):
        c = binary_tree_cdag(5)
        with pytest.raises(ValueError, match="limited"):
            min_s_partition_parts(c, 4)

    def test_monotone_in_s(self):
        c = diamond_chain_cdag(3)
        parts = [min_s_partition_parts(c, S) for S in (2, 3, 5, 10)]
        assert parts == sorted(parts, reverse=True)


class TestHongKungBound:
    @pytest.mark.parametrize(
        "make,M",
        [
            (lambda: binary_tree_cdag(3), 3),
            (lambda: diamond_chain_cdag(3), 3),
            (lambda: recompute_wins_cdag(1, 2), 3),
            (lambda: path_cdag(8), 2),
        ],
    )
    def test_bound_below_optimal(self, make, M):
        """HK is a valid lower bound for the *recomputation-allowed* game."""
        c = make()
        hk = hong_kung_lower_bound(c, M)
        opt = optimal_io(c, max(M, c.max_fan_in() + 1))
        assert hk <= opt

    def test_bound_nonnegative(self):
        assert hong_kung_lower_bound(path_cdag(3), 4) >= 0.0


class TestSpan:
    def test_path_span_is_rest_of_path(self):
        """From a pebble on the input, the whole path can be walked with 2
        pebbles: span = k−1 new vertices."""
        c = path_cdag(6)
        assert s_span(c, 2) == 5

    def test_diamond_chain_span_within_default_guard(self):
        """13 vertices fit the default guard: the whole chain is pebbled
        from its input, and the scan stops there instead of searching all
        4,096 placements."""
        t0 = time.perf_counter()
        assert s_span(diamond_chain_cdag(4), 6) == 12
        assert time.perf_counter() - t0 < 2.0

    def test_span_monotone_in_s(self):
        for c in (binary_tree_cdag(3), diamond_chain_cdag(3), recompute_wins_cdag(1, 2)):
            spans = [s_span(c, S, max_vertices=15) for S in (3, 5, 8)]
            assert spans == sorted(spans), c.name

    def test_span_capacity_starvation(self):
        """S below fan-in+1: no internal vertex is computable ⇒ span 0."""
        c = binary_tree_cdag(2)
        assert s_span(c, 2) in (0, 1)  # at most trivial progress

    def test_size_guard(self):
        with pytest.raises(ValueError):
            s_span(binary_tree_cdag(4), 4)

    def test_savage_bound_below_optimal(self):
        for make, M in (
            (lambda: binary_tree_cdag(3), 2),
            (lambda: diamond_chain_cdag(3), 2),
            (lambda: recompute_wins_cdag(1, 2), 2),
        ):
            c = make()
            sv = savage_lower_bound(c, M, max_vertices=15)
            opt = optimal_io(c, max(M, c.max_fan_in() + 1))
            assert sv <= opt

    def test_savage_vs_hong_kung_incomparable(self):
        """Neither classical technique dominates the other — the reason the
        paper needs its own (flow-based) method."""
        tree = binary_tree_cdag(3)
        sv = savage_lower_bound(tree, 2, max_vertices=15)
        hk = hong_kung_lower_bound(tree, 2)
        # on the reduction tree the span bound is the stronger one
        assert sv >= hk

    def test_floors_below_optimum_on_strassen_slice(self, strassen_alg):
        """On the slice of Strassen's base CDAG that computes C12, both
        generic floors stay below the exact optimum."""
        from repro.cdag import base_case_cdag

        base = base_case_cdag(strassen_alg, style="tree")
        piece = base.ancestor_closure([base.outputs[1]])
        opt = optimal_io(piece, 4)
        assert hong_kung_lower_bound(piece, 2) <= opt
        assert savage_lower_bound(piece, 2, max_vertices=15) <= opt
