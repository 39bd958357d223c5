"""The differential executor: exact three-way agreement on real probes,
and first-divergence localization on synthetically tampered inputs."""

import dataclasses
import json

from repro.cdag.families import binary_tree_cdag
from repro.falsify.differential import (
    DifferentialProbe,
    default_probes,
    localize_event_divergence,
    localize_move_divergence,
    localize_row_divergence,
    run_differential,
)
from repro.obs import collecting
from repro.pebbling.game import Move, MoveKind, Schedule
from repro.pebbling.heuristics import topological_schedule
from repro.schedule import lower, seq_io_schedule
from repro.schedule.ir import Op, OpKind


class TestAgreement:
    def test_every_probe_kind_agrees(self):
        probes = [
            DifferentialProbe("level_replay", {"alg": "strassen", "n": 8, "M": 48}),
            DifferentialProbe("level_replay", {"alg": "classical", "n": 16, "M": 64}),
            DifferentialProbe("row_replay", {"n": 8, "M": 16}),
            DifferentialProbe(
                "pebble", {"family": "binary_tree", "depth": 3, "M": 3,
                           "scheduler": "topological"}
            ),
        ]
        rep = run_differential(probes)
        assert rep.ok and len(rep.outcomes) == 4
        for o in rep.outcomes:
            assert o.divergence is None
            assert len({json.dumps(c, sort_keys=True) for c in o.counters.values()}) == 1

    def test_default_grid_covers_every_family(self):
        kinds = {p.kind for p in default_probes()}
        assert kinds == {"level_replay", "row_replay", "pebble", "backend"}

    def test_default_grid_covers_zoo_entries(self):
        """ISSUE 8: per-zoo-entry probes, including a rectangular base."""
        algs = {p.params.get("alg") for p in default_probes()}
        assert {"laderman", "grey-333-23-221", "grey-522-18"} <= algs

    def test_rectangular_zoo_probe_agrees(self):
        """⟨5,2,2;18⟩ at n = 25 recurses once; every counting path must
        report the identical I/O word count."""
        probes = [
            DifferentialProbe("level_replay", {"alg": "grey-522-18", "n": 25, "M": 64}),
            DifferentialProbe("level_replay", {"alg": "laderman", "n": 9, "M": 48}),
        ]
        rep = run_differential(probes)
        assert rep.ok
        for o in rep.outcomes:
            assert o.divergence is None

    def test_default_grid_covers_search_schedulers(self):
        """ISSUE 9: the beam, the portfolio race, and the Lemma 2.2
        memoized splice are probed alongside the original schedulers."""
        schedulers = {
            p.params.get("scheduler")
            for p in default_probes()
            if p.kind == "pebble"
        }
        assert {"beam", "portfolio", "beam_memo"} <= schedulers

    def test_search_scheduler_probes_agree(self):
        probes = [
            DifferentialProbe(
                "pebble", {"family": "recompute_wins", "gadgets": 1,
                           "flush_length": 2, "M": 3, "scheduler": "portfolio"}
            ),
            DifferentialProbe(
                "pebble", {"family": "binary_tree", "depth": 3, "M": 5,
                           "scheduler": "beam"}
            ),
            DifferentialProbe(
                "pebble", {"family": "strassen_h4", "M": 12,
                           "scheduler": "beam_memo"}
            ),
        ]
        rep = run_differential(probes)
        assert rep.ok
        for o in rep.outcomes:
            assert o.divergence is None
            assert len({json.dumps(c, sort_keys=True)
                        for c in o.counters.values()}) == 1

    def test_backend_restriction_narrows_backend_probes(self):
        probes = [p for p in default_probes(backend="symbolic")
                  if p.kind == "backend"]
        assert probes and all(
            p.params.get("backends") == ["symbolic"] for p in probes
        )

    def test_narrowed_probe_keeps_machine_column(self):
        probe = DifferentialProbe(
            "backend", {"workload": "seq_io", "alg": "strassen", "n": 16,
                        "M": 48, "backends": ["vector"]}
        )
        outcome = run_differential([probe]).outcomes[0]
        assert outcome.agree
        assert set(outcome.counters) == {"vector", "machine"}

    def test_metrics_published(self):
        probes = [DifferentialProbe("row_replay", {"n": 6, "M": 16})]
        with collecting() as reg:
            rep = run_differential(probes)
        counters = reg.to_dict()["counters"]
        assert rep.ok
        assert counters["falsify.differential.probes"] == 1
        assert counters["falsify.differential.agreements"] == 1
        assert "falsify.differential.divergences" not in counters


class TestEventLocalization:
    @staticmethod
    def _loads(words):
        return [Op(OpKind.LOAD, "A", w) for w in words]

    def test_identical_streams_agree(self):
        ops = self._loads([4, 4, 8]) + [Op(OpKind.STORE, "C", 2)]
        assert localize_event_divergence(ops, ops) is None

    def test_replay_summary_aligns_with_fine_stream(self):
        fine = self._loads([4, 4, 8, 8])
        # one more copy of op 0's 4 reads, five times: 20 reads
        coarse = self._loads([4]) + [Op(OpKind.REPLAY, span=(0, 1), repeats=5)]
        assert localize_event_divergence(coarse, fine) is None

    def test_tampered_stream_is_localized(self):
        fine = self._loads([4, 4, 8])
        tampered = self._loads([4, 5, 8])  # one extra word on op 1
        div = localize_event_divergence(tampered, fine)
        assert div is not None and div["where"] == "event"
        assert div["index"] == 1
        assert div["expected_cumulative"]["reads"] == 9

    def test_missing_tail_is_localized(self):
        fine = self._loads([4, 4, 8])
        short = self._loads([4, 4])
        div = localize_event_divergence(short, fine)
        assert div is not None and div["index"] == 2

    def test_real_lowered_schedules(self):
        """The probe's own inputs: the replay and full lowerings of one
        point agree; one word more on a LOAD is named at that op."""
        replay = lower(seq_io_schedule("strassen", 16, 48, replay=True)).ops
        full = lower(seq_io_schedule("strassen", 16, 48, replay=False)).ops
        assert any(op.kind is OpKind.REPLAY for op in replay)
        assert localize_event_divergence(replay, full) is None
        loads = [i for i, op in enumerate(replay) if op.kind is OpKind.LOAD]
        idx = loads[len(loads) // 2]
        tampered = [dataclasses.replace(op) for op in replay]
        tampered[idx].words += 1
        div = localize_event_divergence(tampered, full)
        assert div is not None and div["where"] == "event"
        assert div["index"] == idx
        assert div["event"]["event"] == "machine.load"


class TestRowLocalization:
    def test_real_kernels_never_diverge(self):
        assert localize_row_divergence(8, 16) is None


class TestMoveLocalization:
    def test_real_schedule_never_diverges(self):
        cdag = binary_tree_cdag(3)
        sched = topological_schedule(cdag, 3)
        assert localize_move_divergence(sched, 3) is None

    def test_redundant_load_is_localized(self):
        """Insert a load of an already-red vertex: the move-kind ledger
        counts it, the game-state ledger does not — the localizer must
        name that exact move."""
        cdag = binary_tree_cdag(3)
        sched = topological_schedule(cdag, 3)
        idx = next(
            i for i, m in enumerate(sched.moves) if m.kind is MoveKind.LOAD
        )
        moves = list(sched.moves)
        moves.insert(idx + 1, Move(MoveKind.LOAD, moves[idx].v))
        div = localize_move_divergence(Schedule(cdag=cdag, moves=moves), 3)
        assert div is not None and div["where"] == "move"
        assert div["index"] == idx + 1
        assert div["kind_ledger"]["loads"] == div["game_ledger"]["loads"] + 1
