"""Write-ahead log: checksummed records, torn-tail tolerance, compaction.

The WAL is the durability contract behind "zero lost, zero duplicated":
these tests pin the record format, the corruption taxonomy (a torn tail
is legal, anything else is not), the fold semantics replay relies on,
and that compaction preserves exactly the pending set.
"""

import warnings

import pytest

from repro.engine.wal import WALError, encode, iter_records
from repro.serve.wal import WriteAheadLog, fold_records


def _log(tmp_path, sync="always"):
    return WriteAheadLog(tmp_path / "test.wal", sync=sync)


class TestRecordFormat:
    def test_round_trip_in_append_order(self, tmp_path):
        wal = _log(tmp_path)
        wal.append({"type": "submit", "id": "a", "kind": "seq_io",
                    "params": {"n": 8}})
        wal.append({"type": "done", "id": "a", "result": {"status": "ok"}})
        wal.close()
        records = list(iter_records(wal.path))
        assert [r["type"] for r in records] == ["submit", "done"]
        assert records[0]["params"] == {"n": 8}

    def test_counters_track_appends(self, tmp_path):
        wal = _log(tmp_path)
        wal.append({"type": "submit", "id": "a"})
        wal.append({"type": "submit", "id": "b"})
        assert wal.appended == 2
        wal.close()
        assert wal.bytes_written == wal.path.stat().st_size

    def test_every_line_is_checksummed(self, tmp_path):
        wal = _log(tmp_path)
        wal.append({"type": "submit", "id": "a"})
        wal.close()
        raw = wal.path.read_bytes()
        assert raw[8:9] == b" "
        int(raw[:8], 16)  # 8 hex digits, or this raises

    def test_unknown_sync_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sync mode"):
            _log(tmp_path, sync="sometimes")

    def test_append_after_close_raises(self, tmp_path):
        wal = _log(tmp_path)
        wal.close()
        with pytest.raises(WALError, match="closed"):
            wal.append({"type": "submit", "id": "a"})

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(iter_records(tmp_path / "absent.wal")) == []


class TestCorruption:
    def test_torn_tail_skipped_silently(self, tmp_path):
        """A half-written final record is the one legal crash artifact."""
        wal = _log(tmp_path)
        wal.append({"type": "submit", "id": "a"})
        wal.append({"type": "submit", "id": "b"})
        wal.close()
        data = wal.path.read_bytes()
        wal.path.write_bytes(data[:-7])  # tear the last record mid-JSON
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # silence required, not a warning
            records = list(iter_records(wal.path))
        assert [r["id"] for r in records] == ["a"]

    def test_midfile_corruption_raises_when_strict(self, tmp_path):
        wal = _log(tmp_path)
        wal.append({"type": "submit", "id": "a"})
        wal.append({"type": "submit", "id": "b"})
        wal.close()
        lines = wal.path.read_bytes().splitlines(keepends=True)
        lines[0] = b"deadbeef " + lines[0][9:]  # valid shape, wrong checksum
        wal.path.write_bytes(b"".join(lines))
        with pytest.raises(WALError, match="checksum mismatch"):
            list(iter_records(wal.path))

    def test_midfile_corruption_skipped_with_warning_when_lenient(self, tmp_path):
        wal = _log(tmp_path)
        wal.append({"type": "submit", "id": "a"})
        wal.append({"type": "submit", "id": "b"})
        wal.close()
        lines = wal.path.read_bytes().splitlines(keepends=True)
        lines[0] = b"x" * 8 + lines[0][8:]
        wal.path.write_bytes(b"".join(lines))
        with pytest.warns(RuntimeWarning, match="skipping record 0"):
            records = list(iter_records(wal.path, strict=False))
        assert [r["id"] for r in records] == ["b"]

    def test_malformed_midfile_line_raises(self, tmp_path):
        wal = _log(tmp_path)
        wal.append({"type": "submit", "id": "a"})
        wal.close()
        wal.path.write_bytes(b"garbage\n" + wal.path.read_bytes())
        with pytest.raises(WALError, match="malformed"):
            list(iter_records(wal.path))


class TestFold:
    def test_submit_is_pending_until_terminal(self):
        ledger = fold_records([{"type": "submit", "id": "a"}])
        assert ledger["a"]["status"] == "pending"

    def test_done_and_cancel_are_terminal(self):
        ledger = fold_records([
            {"type": "submit", "id": "a"},
            {"type": "submit", "id": "b"},
            {"type": "done", "id": "a", "result": {"status": "ok"}},
            {"type": "cancel", "id": "b"},
        ])
        assert ledger["a"]["status"] == "done"
        assert ledger["a"]["result"] == {"status": "ok"}
        assert ledger["b"]["status"] == "cancelled"

    def test_coalesce_records_the_leader(self):
        ledger = fold_records([
            {"type": "submit", "id": "a"},
            {"type": "submit", "id": "b"},
            {"type": "coalesce", "id": "b", "into": "a"},
        ])
        assert ledger["b"]["coalesced_into"] == "a"
        assert ledger["a"]["coalesced_into"] is None

    def test_records_for_unknown_ids_tolerated(self):
        """A compaction that raced a writer leaves orphan records."""
        ledger = fold_records([
            {"type": "done", "id": "ghost", "result": {}},
            {"type": "submit", "id": "a"},
        ])
        assert set(ledger) == {"a"}

    def test_requeue_changes_nothing(self):
        ledger = fold_records([
            {"type": "submit", "id": "a"},
            {"type": "requeue", "id": "a"},
        ])
        assert ledger["a"]["status"] == "pending"


class TestCompact:
    def test_pending_jobs_survive_terminal_jobs_collapse(self, tmp_path):
        wal = _log(tmp_path)
        wal.append({"type": "submit", "id": "a", "submitted_at": 1.0})
        wal.append({"type": "done", "id": "a", "result": {"status": "ok"}})
        wal.append({"type": "done", "id": "a", "result": {"status": "ok"}})  # duplicate
        wal.append({"type": "submit", "id": "b", "submitted_at": 2.0})
        written = wal.compact(wal.replay())
        assert written == 2
        ledger = wal.replay()
        assert ledger["a"]["status"] == "done"
        assert ledger["b"]["status"] == "pending"
        # the duplicate terminal record collapsed to exactly one
        records = list(iter_records(wal.path))
        assert sum(1 for r in records if r["type"] == "done") == 1

    def test_keep_terminal_drops_the_oldest(self, tmp_path):
        wal = _log(tmp_path)
        for i in range(5):
            wal.append({"type": "submit", "id": f"j{i}", "submitted_at": float(i)})
            wal.append({"type": "done", "id": f"j{i}", "result": {"status": "ok"}})
        wal.compact(wal.replay(), keep_terminal=2)
        ledger = wal.replay()
        assert sorted(ledger) == ["j3", "j4"]

    def test_log_stays_usable_after_compact(self, tmp_path):
        wal = _log(tmp_path)
        wal.append({"type": "submit", "id": "a", "submitted_at": 1.0})
        wal.compact(wal.replay())
        wal.append({"type": "done", "id": "a", "result": {"status": "ok"}})
        wal.close()
        assert wal.replay()["a"]["status"] == "done"

    def test_coalesce_chain_preserved(self, tmp_path):
        wal = _log(tmp_path)
        wal.append({"type": "submit", "id": "lead", "submitted_at": 1.0})
        wal.append({"type": "submit", "id": "tail", "submitted_at": 2.0})
        wal.append({"type": "coalesce", "id": "tail", "into": "lead"})
        wal.compact(wal.replay())
        ledger = wal.replay()
        assert ledger["tail"]["coalesced_into"] == "lead"


class TestSyncModes:
    @pytest.mark.parametrize("sync", ["always", "batch", "off"])
    def test_all_modes_produce_identical_logs(self, tmp_path, sync):
        wal = WriteAheadLog(tmp_path / f"{sync}.wal", sync=sync)
        wal.append({"type": "submit", "id": "a"})
        wal.sync()
        wal.close()
        assert [r["id"] for r in iter_records(wal.path)] == ["a"]

    def test_encode_is_deterministic(self):
        a = encode({"type": "submit", "id": "a", "params": {"n": 8, "M": 48}})
        b = encode({"params": {"M": 48, "n": 8}, "id": "a", "type": "submit"})
        assert a == b
