"""Unit tests for the exact optimal pebbling search."""

import pytest

from repro.cdag.core import CDAG
from repro.cdag.families import (
    binary_tree_cdag,
    diamond_chain_cdag,
    recompute_wins_cdag,
)
from repro.graphs.digraph import DiGraph
from repro.pebbling.game import (
    MoveKind,
    PebbleCost,
    schedule_io,
    validate_schedule,
)
from repro.pebbling.heuristics import topological_schedule
from repro.pebbling.optimal import (
    Infeasible,
    SearchExhausted,
    optimal_io,
    optimal_schedule,
    writeback_lower_bound,
)


def path(k: int) -> CDAG:
    g = DiGraph()
    g.add_vertices(k)
    for i in range(k - 1):
        g.add_edge(i, i + 1)
    return CDAG(g, [0], [k - 1], name=f"path{k}")


class TestKnownOptima:
    def test_path_costs_two(self):
        """Load the input, compute along, store the output: 2 I/O."""
        assert optimal_io(path(5), M=2) == 2.0

    def test_path_m1_infeasible_vs_m2(self):
        # M=1: computing v needs pred red + slot for v → impossible.  The
        # heap drains, so this is a *proof* of infeasibility — raising the
        # fuse cannot help, and the exception type now says so.
        with pytest.raises(Infeasible):
            optimal_io(path(3), M=1, max_states=10_000)
        assert optimal_io(path(3), M=2) == 2.0

    def test_infeasible_not_conflated_with_fuse(self):
        """Same instance, two failure modes: a drained heap is Infeasible,
        a blown fuse is SearchExhausted — and neither is a subclass of the
        other, so callers can tell 'impossible' from 'try a bigger budget'."""
        c = recompute_wins_cdag(2, 2)
        with pytest.raises(SearchExhausted):
            optimal_io(c, M=3, max_states=10)
        with pytest.raises(Infeasible):
            optimal_io(c, M=1)
        assert not issubclass(Infeasible, SearchExhausted)
        assert not issubclass(SearchExhausted, Infeasible)

    def test_binary_tree_matches_leaf_loads(self):
        """With enough red pebbles (depth+2 here — computing a node needs
        both children AND a result slot, unlike black pebbling's slide) a
        reduction tree costs exactly one load per leaf + one output store."""
        c = binary_tree_cdag(3)
        assert optimal_io(c, M=5) == 8 + 1

    def test_binary_tree_spills_below_pebbling_number(self):
        """Below that threshold spills are forced: I/O strictly above 9,
        and monotonically worse as M shrinks."""
        c = binary_tree_cdag(3)
        assert optimal_io(c, M=4) == 11
        assert optimal_io(c, M=3) == 15

    def test_single_vertex_io(self):
        g = DiGraph()
        g.add_vertices(2)
        g.add_edge(0, 1)
        c = CDAG(g, [0], [1])
        assert optimal_io(c, M=2) == 2.0

    def test_output_already_input(self):
        g = DiGraph()
        g.add_vertex()
        c = CDAG(g, [0], [0])
        assert optimal_io(c, M=1) == 0.0  # input starts blue


class TestRecomputationComparison:
    def test_gadget_strict_separation(self):
        """The paper's §V contrast: a CDAG where recomputation wins."""
        c = recompute_wins_cdag(1, 2)
        with_r = optimal_io(c, M=3, allow_recompute=True)
        without_r = optimal_io(c, M=3, allow_recompute=False)
        assert with_r < without_r

    def test_gadget_gap_grows_under_nvm_costs(self):
        c = recompute_wins_cdag(1, 2)
        symmetric = optimal_io(c, 3, False) - optimal_io(c, 3, True)
        for omega in (2.0, 4.0):
            cost = PebbleCost(read_cost=1.0, write_cost=omega)
            gap = optimal_io(c, 3, False, cost) - optimal_io(c, 3, True, cost)
            assert gap >= omega  # the saved store costs ω
        assert gap > symmetric

    def test_gadget_no_gap_with_big_cache(self):
        c = recompute_wins_cdag(1, 2)
        assert optimal_io(c, M=6, allow_recompute=True) == optimal_io(
            c, M=6, allow_recompute=False
        )

    def test_trees_gain_nothing(self):
        """Fan-out-free CDAGs: recomputation is pointless (footnote 1)."""
        c = binary_tree_cdag(3)
        assert optimal_io(c, 3, True) == optimal_io(c, 3, False)

    def test_diamond_gain_nothing_with_room(self):
        c = diamond_chain_cdag(3)
        assert optimal_io(c, 4, True) == optimal_io(c, 4, False)

    @pytest.mark.parametrize("output_index,M", [(1, 5), (2, 4), (2, 5)])
    def test_strassen_slices_gain_nothing(self, strassen_alg, output_index, M):
        """The title claim at base-case scale: on the slices of Strassen's
        base CDAG computing C12 and C21, recomputation buys no I/O (C12 at
        M = 4 is experiment E7)."""
        from repro.cdag import base_case_cdag

        base = base_case_cdag(strassen_alg, style="tree")
        piece = base.ancestor_closure([base.outputs[output_index]])
        assert optimal_io(piece, M, True) == optimal_io(piece, M, False)


class TestAgainstHeuristic:
    @pytest.mark.parametrize("M", [3, 4])
    def test_optimal_le_heuristic(self, M):
        for c in (binary_tree_cdag(3), diamond_chain_cdag(3)):
            sched = topological_schedule(c, M)
            heuristic = validate_schedule(sched, M)["io"]
            assert optimal_io(c, M) <= heuristic

    def test_more_memory_never_hurts(self):
        c = recompute_wins_cdag(1, 2)
        assert optimal_io(c, 4) <= optimal_io(c, 3)


class TestWitness:
    @pytest.mark.parametrize("allow_recompute", [True, False])
    def test_witness_replays_at_exact_cost(self, allow_recompute):
        """The reconstructed schedule is a genuine witness: replaying it
        through the validator yields the reported optimum, exactly."""
        c = recompute_wins_cdag(1, 2)
        io, sched = optimal_schedule(c, 3, allow_recompute=allow_recompute)
        assert io == optimal_io(c, 3, allow_recompute=allow_recompute)
        stats = validate_schedule(sched, 3, allow_recompute=allow_recompute)
        assert stats["io"] == io
        assert stats["io"] == schedule_io(sched, PebbleCost())
        assert stats["loads"] == sum(
            1 for m in sched.moves if m.kind is MoveKind.LOAD
        )
        assert stats["stores"] == sum(
            1 for m in sched.moves if m.kind is MoveKind.STORE
        )
        if not allow_recompute:
            assert stats["recomputations"] == 0

    def test_witness_uses_recomputation_when_it_wins(self):
        c = recompute_wins_cdag(1, 2)
        io, sched = optimal_schedule(c, 3, allow_recompute=True)
        stats = validate_schedule(sched, 3, allow_recompute=True)
        assert stats["recomputations"] >= 1
        assert io < optimal_io(c, 3, allow_recompute=False)

    def test_witness_on_tree_and_nvm_costs(self):
        c = binary_tree_cdag(3)
        cost = PebbleCost(read_cost=1.0, write_cost=3.0)
        io, sched = optimal_schedule(c, 4, cost=cost)
        assert validate_schedule(sched, 4, cost=cost)["io"] == io

    def test_writeback_bound_admissible_on_witness(self):
        """h at the start state never exceeds the true optimum."""
        for c, M in ((binary_tree_cdag(3), 4), (recompute_wins_cdag(1, 2), 3)):
            blue = 0
            for v in c.inputs:
                blue |= 1 << v
            outs = 0
            for v in c.outputs:
                outs |= 1 << v
            assert writeback_lower_bound(blue, outs, 1.0) <= optimal_io(c, M)


class TestGuards:
    def test_too_many_vertices_rejected(self):
        c = binary_tree_cdag(6)  # 127 vertices
        with pytest.raises(ValueError, match="62"):
            optimal_io(c, 4)

    def test_state_fuse(self):
        c = recompute_wins_cdag(2, 2)
        with pytest.raises(SearchExhausted):
            optimal_io(c, 3, max_states=10)

    def test_bad_m(self):
        with pytest.raises(ValueError):
            optimal_io(path(3), M=0)

    @pytest.mark.parametrize("M", [2.5, 3.0, True, "3", None])
    def test_non_integral_m_rejected(self, M):
        """M=2.5 used to search as M=3; M=True as M=1 (Infeasible)."""
        for search in (optimal_io, optimal_schedule):
            with pytest.raises(TypeError, match="M must be an int"):
                search(binary_tree_cdag(2), M)

    def test_numpy_int_m_accepted(self):
        np = pytest.importorskip("numpy")
        assert optimal_io(path(3), np.int64(2)) == optimal_io(path(3), 2)
