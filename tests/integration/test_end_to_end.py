"""Integration tests: the full reproduction pipeline, cross-module.

Each test stitches several subsystems together the way the benches and the
paper's argument do: algorithm → CDAG → schedule → audit → bound, or
algorithm → machine → measured I/O → bound.
"""

import numpy as np
import pytest

from repro import (
    OMEGA0_STRASSEN,
    execute_abmm,
    build_recursive_cdag,
    check_lemma31,
    check_theorem11_sequential,
    evaluate_table1,
    parallel_max_bound,
    fast_sequential,
    karstadt_schwartz,
    execute_recursive_bilinear,
    segment_audit,
    strassen,
    execute_tiled,
    topological_schedule,
    validate_schedule,
    winograd,
)
from repro.engine import parallel_comm_point, run_point
from repro.machine import SequentialMachine


class TestHeadlineClaim:
    """'Recomputation cannot reduce I/O for fast matmul' — end to end."""

    def test_segment_floor_survives_recomputation(self):
        from repro.lemmas import check_theorem11_adversary

        writeback = check_theorem11_sequential(strassen(), n=8, M=4)[0]
        recompute = check_theorem11_adversary(strassen(), n=8, M=16)
        # the adversary recomputes massively…
        assert recompute.recomputations > 10_000
        # …and still pays at least as much I/O per segment as the floor
        assert recompute.report.holds and writeback.report.holds
        # …and in total at least the implied bound
        assert recompute.total_io >= recompute.report.implied_lower_bound

    def test_audit_on_winograd_cdag(self):
        H = build_recursive_cdag(winograd(), 8, style="tree")
        sched = topological_schedule(H.cdag, 16)
        validate_schedule(sched, 16, allow_recompute=False)
        rep = segment_audit(H, sched, M=16)  # audit M = execution M: sound
        assert rep.holds


class TestMeasuredVsBounds:
    def test_sequential_hierarchy_of_algorithms(self, rng):
        """classical > strassen ≥ KS-bilinear in measured I/O; all ≥ Ω."""
        n, M = 64, 48
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))

        m_cl = SequentialMachine(M)
        execute_tiled(m_cl, A, B)
        m_st = SequentialMachine(M)
        execute_recursive_bilinear(m_st, strassen(), A, B)
        m_ks = SequentialMachine(M)
        _, phases = execute_abmm(m_ks, karstadt_schwartz(), A, B)

        floor = fast_sequential(n, M)
        for io in (m_st.io_operations, phases["io_bilinear"]):
            assert io >= floor
        # n/√M = 16: classical tiling still wins at this modest ratio (the
        # crossover needs larger n/√M); what must hold universally is the Ω
        assert m_cl.io_operations >= (n / np.sqrt(M)) ** 3 * np.sqrt(M)

    @pytest.mark.slow
    def test_fast_wins_asymptotically(self, rng):
        """The 'who wins' shape: the streamed DFS executor carries a ~4×
        constant over tiled classical (as real Strassen codes do), so the
        measured crossover sits beyond laptop sizes — what must hold is
        that Strassen's measured exponent is smaller and the ratio
        fast/classical shrinks monotonically with n."""
        M = 48
        ratios = []
        ios_fast, ios_classical, sizes = [], [], [64, 128, 256]
        for n in sizes:
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, n))
            m_cl = SequentialMachine(M)
            execute_tiled(m_cl, A, B)
            m_st = SequentialMachine(M)
            execute_recursive_bilinear(m_st, strassen(), A, B)
            ios_fast.append(m_st.io_operations)
            ios_classical.append(m_cl.io_operations)
            ratios.append(m_st.io_operations / m_cl.io_operations)
        from repro.bounds.validation import fit_exponent

        assert fit_exponent(sizes, ios_fast) < fit_exponent(sizes, ios_classical)
        assert abs(fit_exponent(sizes, ios_classical) - 3.0) < 0.35
        assert ratios == sorted(ratios, reverse=True)

    def test_parallel_max_bound_respected(self):
        """Per-processor I/O (communication + local) respects
        max{memory-dependent, memory-independent} across strong scaling.
        The machine backend checks each run's product against A @ B."""
        n, M = 32, 48
        for P in (1, 7, 49):
            m = run_point(parallel_comm_point("strassen", n, P, M=M)).metrics
            io_per_proc = m["comm_per_proc_max"] + m["local_io_per_proc"]
            assert io_per_proc >= parallel_max_bound(n, M, P) / 8


class TestTableOneCoherence:
    def test_fast_rows_dominate_at_scale(self):
        rows = evaluate_table1(n=4096, M=1024, P=49)
        classical_md = list(rows[0]["bounds"].values())[0]
        strassen_md = list(rows[1]["bounds"].values())[0]
        assert strassen_md < classical_md  # log₂7 < 3

    def test_lemma31_feeds_theorem(self):
        """The chain: Lemma 3.1 holds → segment audit floor is justified."""
        alg = strassen()
        assert check_lemma31(alg, "A").holds
        audits = check_theorem11_sequential(alg, n=8, M=4)
        assert all(a.per_segment_holds for a in audits)


class TestOmegaConsistency:
    def test_omega0_matches_algorithm(self):
        assert strassen().omega0 == pytest.approx(OMEGA0_STRASSEN)

    def test_counting_matches_formula(self):
        """# size-r subproblems in the built CDAG = (n/r)^{ω₀} exactly."""
        H = build_recursive_cdag(strassen(), 16)
        assert H.num_subproblems(4) == int(round((16 / 4) ** OMEGA0_STRASSEN))
        assert H.num_subproblems(1) == 7 ** 4
