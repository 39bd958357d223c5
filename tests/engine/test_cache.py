"""Unit tests for the content-addressed result cache and its keys.

The cache is one SQLite file, ``<cache_dir>/cache.sqlite``; the helpers
below read and tamper with its rows through a second connection, the way
disk trouble or a stray editor would.
"""

import contextlib
import json
import multiprocessing
import sqlite3
import zlib

import pytest

from repro.engine import CACHE_SCHEMA, ResultCache, code_version, point_key
from repro.engine.runners import seq_io_point
from repro.engine.wal import encode


def _db(cache_dir):
    """A second connection, closed when its ``with`` block ends."""
    return contextlib.closing(sqlite3.connect(cache_dir / "cache.sqlite",
                                              isolation_level=None))


def _entry(cache_dir, key) -> bytes:
    """The raw stored bytes of one row."""
    with _db(cache_dir) as db:
        return db.execute("SELECT entry FROM entries WHERE key = ?", (key,)).fetchone()[0]


def _tamper(cache_dir, key, data: bytes) -> None:
    """Overwrite one row's stored bytes behind the cache's back."""
    with _db(cache_dir) as db:
        db.execute("UPDATE entries SET entry = ? WHERE key = ?", (data, key))


def _set_used(cache_dir, key, used: int) -> None:
    with _db(cache_dir) as db:
        db.execute("UPDATE entries SET used = ? WHERE key = ?", (used, key))


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"metrics": {"io": 123.0}, "trace": {}}
        key = "ab" + "0" * 62
        cache.put(key, payload)
        assert cache.get(key) == payload
        assert key in cache
        assert len(cache) == 1

    def test_entry_bytes_are_sorted_compact_json(self, tmp_path):
        """A row is the checksummed ``wal.encode`` line of its key and
        payload, so the stored bytes do not depend on the key order."""
        cache = ResultCache(tmp_path)
        key = "ef" + "2" * 62
        payload = {
            "kind": "seq_io",
            "params": {"n": 64, "M": 48, "alg": "strassen", "backend": "symbolic"},
            "metrics": {"io": 1234567.0, "reads": 1000000, "ratio": 0.1 + 0.2},
            "trace": {"metrics": {"counters": {"machine.seq.words": 7}},
                      "events": [], "note": "ω₀ ≈ 2.807"},
        }
        cache.put(key, payload)
        raw = _entry(tmp_path, key)
        assert raw == encode({"key": key, "payload": payload})
        reordered = {k: payload[k] for k in reversed(list(payload))}
        reordered["params"] = dict(reversed(list(payload["params"].items())))
        cache.put(key, reordered)
        assert _entry(tmp_path, key) == raw
        assert cache.get(key) == payload

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ff" + "0" * 62) is None

    def test_single_database_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02x}" + "1" * 62, {"metrics": {}})
        cache.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.sqlite"]
        with _db(tmp_path) as db:
            assert db.execute("SELECT count(*) FROM entries").fetchone()[0] == 3

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ee" + "2" * 62
        cache.put(key, {"metrics": {}})
        _tamper(tmp_path, key, b"{not json")
        assert cache.get(key) is None

    def test_entry_under_another_key_is_a_miss(self, tmp_path):
        """A valid frame reached under the wrong key (a cross-wired row)
        is never served: the frame binds the key it was written for."""
        cache = ResultCache(tmp_path)
        a, b = "a1" + "0" * 62, "b2" + "0" * 62
        cache.put(a, {"metrics": {"io": 1.0}})
        cache.put(b, {"metrics": {"io": 2.0}})
        _tamper(tmp_path, a, _entry(tmp_path, b))
        assert cache.get(a) is None
        assert cache.get(b) == {"metrics": {"io": 2.0}}
        assert (tmp_path / "quarantine" / f"{a}.json").read_bytes() == _entry(tmp_path, b)

    def test_corrupt_entry_is_quarantined_and_reported(self, tmp_path):
        seen = []
        cache = ResultCache(tmp_path, on_corrupt=lambda k, p: seen.append((k, p)))
        key = "ee" + "5" * 62
        cache.put(key, {"metrics": {}})
        _tamper(tmp_path, key, b"0badc0de {not json")
        assert cache.get(key) is None
        # moved aside, not left to be overwritten blind
        assert key not in cache
        (reported_key, dest), = seen
        assert reported_key == key
        assert dest.parent.name == "quarantine"
        assert dest.read_bytes() == b"0badc0de {not json"
        # a fresh put works and the quarantined copy is not counted
        cache.put(key, {"metrics": {"io": 1}})
        assert cache.get(key) == {"metrics": {"io": 1}}
        assert len(cache) == 1

    def test_quarantine_names_never_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ee" + "6" * 62
        for _ in range(2):
            cache.put(key, {"metrics": {}})
            _tamper(tmp_path, key, b"{x")
            assert cache.get(key) is None
        assert len(list((tmp_path / "quarantine").iterdir())) == 2

    def test_corrupt_hit_counts_engine_metric(self, tmp_path):
        from repro.engine import EngineConfig, run_point, run_sweep
        from repro.engine.runners import seq_io_point as point
        from repro.obs.manifest import MANIFEST_NAME, RunManifest

        cache_dir = tmp_path / "cache"
        res = run_point(point("strassen", 8, 48), EngineConfig(cache_dir=cache_dir))
        _tamper(cache_dir, res.key, b"garbage")
        sweep_dir = tmp_path / "sweep"
        rerun = run_sweep([point("strassen", 8, 48)],
                          EngineConfig(cache_dir=cache_dir, sweep_dir=sweep_dir))
        assert rerun.stats["cache_hits"] == 0
        counters = RunManifest.load(sweep_dir / MANIFEST_NAME)["metrics"]["counters"]
        assert counters["engine.cache.corrupt"] == 1
        quarantined = [p.name for p in (cache_dir / "quarantine").iterdir()]
        assert quarantined == [f"{res.key}.json"]

    def test_verify_reports_corrupt_rows(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = "aa" + "7" * 62
        bad = "bb" + "7" * 62
        cache.put(good, {"metrics": {}})
        cache.put(bad, {"metrics": {}})
        _tamper(tmp_path, bad, b"{")
        report = cache.verify()
        assert report["entries"] == 2
        assert not report["ok"]
        assert report["corrupt"] == [bad]
        # read-only: the corrupt row is still there, nothing quarantined
        assert bad in cache and report["quarantined"] == 0
        assert "orphaned_tmp" not in report  # no temp files exist any more

    def test_verify_clean_cache_is_ok(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cc" + "8" * 62, {"metrics": {}})
        report = cache.verify()
        assert report["ok"] and report["entries"] == 1
        assert report["corrupt"] == []

    def test_cache_verify_cli(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        key = "dd" + "9" * 62
        cache.put(key, {"metrics": {}})
        assert main(["cache", "verify", str(tmp_path)]) == 0
        capsys.readouterr()
        _tamper(tmp_path, key, b"{")
        assert main(["cache", "verify", "--json", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["corrupt"] == [key] and not report["ok"]

    def test_cache_verify_cli_refuses_a_missing_directory(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "typo"
        assert main(["cache", "verify", str(missing)]) == 2
        assert "no cache directory" in capsys.readouterr().err
        assert not missing.exists()  # nothing created by looking

    def test_overwrite_is_atomic_replace(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "aa" + "3" * 62
        cache.put(key, {"metrics": {"io": 1}})
        cache.put(key, {"metrics": {"io": 2}})
        assert cache.get(key) == {"metrics": {"io": 2}}
        assert len(cache) == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02x}" + "4" * 62, {"metrics": {}})
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.total_bytes() == 0


def _quarantine_worker(cache_dir, key, rounds, barrier_go, barrier_done, queue):
    """One concurrent sweep repeatedly hitting the same corrupt entry."""
    cache = ResultCache(cache_dir)
    outcomes = []
    for _ in range(rounds):
        barrier_go.wait(timeout=30)  # parent has (re)written the corrupt row
        outcomes.append(cache.get(key))
        barrier_done.wait(timeout=30)
    queue.put(outcomes)


class TestQuarantineRace:
    """Two processes reading the same corrupt row at once: the transactional
    ``DELETE … WHERE key=? AND entry=?`` lets exactly one of them write the
    evidence, and names are reserved with an exclusive create, so every
    round's corrupt bytes survive and none is clobbered."""

    ROUNDS = 8

    def test_two_processes_never_clobber_quarantined_evidence(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        cache = ResultCache(tmp_path)
        key = "ab" + "c" * 62
        barrier_go = ctx.Barrier(3)
        barrier_done = ctx.Barrier(3)
        queue = ctx.Queue()
        workers = [
            ctx.Process(
                target=_quarantine_worker,
                args=(tmp_path, key, self.ROUNDS, barrier_go, barrier_done, queue),
            )
            for _ in range(2)
        ]
        for w in workers:
            w.start()
        payloads = []
        try:
            for i in range(self.ROUNDS):
                cache.put(key, {"metrics": {}})
                payload = f"{{corrupt-round-{i}".encode()
                _tamper(tmp_path, key, payload)
                payloads.append(payload)
                barrier_go.wait(timeout=30)   # both processes race on get()
                barrier_done.wait(timeout=30)
        finally:
            for w in workers:
                w.join(timeout=30)
        assert all(w.exitcode == 0 for w in workers)
        # every get() was a miss — a lost quarantine race is a plain miss,
        # never an exception
        for _ in range(2):
            assert queue.get(timeout=10) == [None] * self.ROUNDS
        # each round's evidence survived: one file per round, no clobbers
        quarantined = sorted((tmp_path / "quarantine").iterdir())
        assert len(quarantined) == self.ROUNDS
        assert {p.read_bytes() for p in quarantined} == set(payloads)


class TestKeys:
    def test_key_is_deterministic(self):
        p = seq_io_point("strassen", 32, 48)
        assert p.key == p.key
        assert p.key == point_key("seq_io", p.params)

    def test_key_distinguishes_params(self):
        keys = {
            seq_io_point("strassen", 32, 48).key,
            seq_io_point("strassen", 64, 48).key,
            seq_io_point("strassen", 32, 96).key,
            seq_io_point("winograd", 32, 48).key,
            seq_io_point(None, 32, 48).key,
        }
        assert len(keys) == 5

    def test_key_binds_code_and_schema(self):
        p = seq_io_point("strassen", 32, 48)
        manual = point_key("seq_io", p.params)
        assert len(manual) == 64
        assert isinstance(code_version(), str) and len(code_version()) == 16
        assert isinstance(CACHE_SCHEMA, int)

    def test_key_ignores_param_order(self):
        a = point_key("seq_io", {"n": 32, "M": 48, "alg": "strassen", "seed": 0})
        b = point_key("seq_io", {"seed": 0, "alg": "strassen", "M": 48, "n": 32})
        assert a == b

    def test_cached_payload_is_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key("seq_io", {"n": 8})
        cache.put(key, {"metrics": {"io": 1.5}})
        raw = _entry(tmp_path, key)
        crc, body = raw.rstrip(b"\n").split(b" ", 1)
        assert json.loads(body) == {"key": key, "payload": {"metrics": {"io": 1.5}}}
        assert int(crc, 16) == zlib.crc32(body)

    def test_digest_tracks_registered_data_files(self, tmp_path):
        """Editing a corpus coefficient file must change the code digest.

        Regression: the digest used to hash ``*.py`` only, so a corpus
        edit silently kept every stale cached measurement valid.
        """
        from repro.engine.keys import _digest

        root = tmp_path / "pkg"
        (root / "zoo" / "corpus").mkdir(parents=True)
        (root / "mod.py").write_text("X = 1\n")
        corpus = root / "zoo" / "corpus" / "probe.json"
        corpus.write_text('{"U": [[1]]}')
        base = _digest(root)
        corpus.write_text('{"U": [[2]]}')
        assert _digest(root) != base
        # and .py edits still invalidate as before
        edited_data = _digest(root)
        (root / "mod.py").write_text("X = 2\n")
        assert _digest(root) != edited_data

    def test_live_digest_includes_corpus(self):
        """The real package digest walks at least one corpus file."""
        from pathlib import Path

        from repro.engine import keys as keys_mod
        from repro.zoo import corpus_dir

        root = Path(keys_mod.__file__).resolve().parents[1]
        tracked = {
            p for pattern in keys_mod.DATA_FILE_GLOBS for p in root.glob(pattern)
        }
        assert corpus_dir().resolve() in {p.parent.resolve() for p in tracked}
        assert tracked, "corpus files must participate in code_version()"


class TestSizeBudget:
    """max_bytes: LRU eviction ordered by the ``used`` column."""

    PAYLOAD = {"metrics": {"io": 1.0}, "pad": "x" * 200}
    SIZE = len(encode({"key": "00" + "e" * 62, "payload": PAYLOAD}))  # one length(entry)

    def _key(self, i: int) -> str:
        return f"{i:02x}" + "e" * 62

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=0)

    def test_put_evicts_oldest_when_over_budget(self, tmp_path):
        evicted = []
        cache = ResultCache(tmp_path, max_bytes=3 * self.SIZE, on_evict=evicted.append)
        for i in range(3):
            cache.put(self._key(i), self.PAYLOAD)
            _set_used(tmp_path, self._key(i), i)  # LRU order is unambiguous
        assert cache.total_bytes() == 3 * self.SIZE
        cache.put(self._key(3), self.PAYLOAD)
        assert evicted == [self._key(0)]
        assert cache.get(self._key(0)) is None
        assert all(cache.get(self._key(i)) is not None for i in (1, 2, 3))
        assert cache.total_bytes() == 3 * self.SIZE

    def test_get_refreshes_recency(self, tmp_path):
        evicted = []
        cache = ResultCache(tmp_path, max_bytes=2 * self.SIZE, on_evict=evicted.append)
        cache.put(self._key(0), self.PAYLOAD)
        cache.put(self._key(1), self.PAYLOAD)
        for i in (0, 1):
            _set_used(tmp_path, self._key(i), i + 1)
        cache.get(self._key(0))  # touch: key 0 becomes most recent
        cache.put(self._key(2), self.PAYLOAD)
        assert evicted == [self._key(1)]
        assert cache.get(self._key(0)) is not None

    def test_no_budget_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(20):
            cache.put(self._key(i), {"pad": "x" * 500})
        assert cache.enforce_budget() == []
        assert len(cache) == 20

    def test_total_tracks_overwrites_and_deletes(self, tmp_path):
        """The trigger-kept total equals the summed ``length(entry)``."""
        cache = ResultCache(tmp_path)
        cache.put(self._key(0), self.PAYLOAD)
        cache.put(self._key(1), {"small": 1})
        cache.put(self._key(1), self.PAYLOAD)  # overwrite with a bigger row
        _tamper(tmp_path, self._key(0), b"{")
        assert cache.get(self._key(0)) is None  # quarantine deletes the row
        with _db(tmp_path) as db:
            summed = db.execute("SELECT total(length(entry)) FROM entries").fetchone()[0]
        assert cache.total_bytes() == summed == self.SIZE

    def test_engine_config_plumbs_budget(self, tmp_path):
        from repro.engine import EngineConfig

        cfg = EngineConfig(cache_dir=tmp_path, cache_max_bytes=123456)
        cache = cfg.open_cache()
        assert cache.max_bytes == 123456
        assert cfg.public_dict()["cache_max_bytes"] == 123456


class TestRepair:
    def test_repair_quarantines_and_prunes(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = "aa" + "b" * 62
        bad = "bb" + "c" * 62
        cache.put(good, {"metrics": {}})
        cache.put(bad, {"metrics": {}})
        _tamper(tmp_path, bad, b"{")

        report = cache.repair()
        assert not report["ok"]  # reports what was *found*
        assert report["repaired"]["quarantined"] == [
            str(tmp_path / "quarantine" / f"{bad}.json")]
        assert bad not in cache  # the corrupt row is pruned from the table
        assert (tmp_path / "quarantine" / f"{bad}.json").read_bytes() == b"{"
        assert cache.get(good) is not None
        assert cache.verify()["ok"]  # a second scan is clean

    def test_repair_on_clean_cache_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cc" + "d" * 62, {"metrics": {}})
        report = cache.repair()
        assert report["ok"]
        assert report["repaired"] == {"quarantined": []}

    def test_cache_verify_repair_cli(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        bad = "ee" + "f" * 62
        cache.put(bad, {"metrics": {}})
        _tamper(tmp_path, bad, b"nope")
        # corruption found → non-zero even though it was repaired
        assert main(["cache", "verify", "--repair", "--json", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["repaired"]["quarantined"]
        # the repair actually happened: a clean re-scan exits zero
        assert main(["cache", "verify", str(tmp_path)]) == 0


def _sweep_into(cache_dir, sizes, queue):
    """A spawned process: one sweep into a shared cache directory."""
    from repro.engine import EngineConfig, run_sweep

    sweep = run_sweep([seq_io_point("strassen", n, 48) for n in sizes],
                      EngineConfig(cache_dir=cache_dir))
    queue.put({sp.run.params["n"]: sp.run.metrics for sp in sweep.points})


class TestStoreFaults:
    """The store fails closed: a damaged row or file is recomputed, never
    served, and sweeps sharing or forking over one store agree."""

    def test_flipped_digit_is_quarantined_and_recomputed(self, tmp_path):
        from repro.engine import EngineConfig, run_point, run_sweep
        from repro.obs.manifest import MANIFEST_NAME, RunManifest

        cache_dir = tmp_path / "cache"
        point = seq_io_point("strassen", 16, 48)
        first = run_point(point, EngineConfig(cache_dir=cache_dir))
        raw = _entry(cache_dir, first.key)
        io = str(first.metrics["io"]).encode()
        assert raw.count(io) >= 1
        flipped = raw.replace(io, str(first.metrics["io"] + 1).encode(), 1)
        _tamper(cache_dir, first.key, flipped)

        sweep_dir = tmp_path / "sweep"
        rerun = run_sweep([point], EngineConfig(cache_dir=cache_dir, sweep_dir=sweep_dir))
        (sp,) = rerun.points
        assert not sp.run.cached  # recomputed, not served
        assert sp.run.metrics == first.metrics
        counters = RunManifest.load(sweep_dir / MANIFEST_NAME)["metrics"]["counters"]
        assert counters["engine.cache.corrupt"] == 1
        assert (cache_dir / "quarantine" / f"{first.key}.json").read_bytes() == flipped
        # the recomputed row replaced it: the next run is a clean hit
        assert run_point(point, EngineConfig(cache_dir=cache_dir)).cached

    def test_garbage_database_recomputes_without_raising(self, tmp_path):
        from repro.engine import EngineConfig, run_sweep
        from repro.obs.manifest import MANIFEST_NAME, RunManifest

        cache_dir = tmp_path / "cache"
        points = [seq_io_point("strassen", n, 48) for n in (8, 16)]
        first = run_sweep(points, EngineConfig(cache_dir=cache_dir))
        db_file = cache_dir / "cache.sqlite"
        db_file.write_bytes(b"\x00garbage, not a database\xff" * 256)

        sweep_dir = tmp_path / "sweep"
        rerun = run_sweep(points, EngineConfig(cache_dir=cache_dir, sweep_dir=sweep_dir))
        assert rerun.stats["cache_hits"] == 0 and not rerun.failures
        assert [p.measured for p in rerun.points] == [p.measured for p in first.points]
        counters = RunManifest.load(sweep_dir / MANIFEST_NAME)["metrics"]["counters"]
        assert counters["engine.cache.corrupt"] == 1
        assert (cache_dir / "quarantine" / "cache.sqlite").read_bytes().startswith(
            b"\x00garbage")
        # the fresh database holds the recomputed rows
        assert run_sweep(points, EngineConfig(cache_dir=cache_dir)).stats["hit_rate"] == 1.0

    def test_two_spawned_sweeps_share_one_store(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        plans = [(8, 16, 32), (16, 32, 8)]  # overlapping points, opposite order
        procs = [ctx.Process(target=_sweep_into, args=(tmp_path, sizes, queue))
                 for sizes in plans]
        for p in procs:
            p.start()
        results = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=30)
        assert all(p.exitcode == 0 for p in procs)
        assert results[0] == results[1]
        cache = ResultCache(tmp_path)
        assert len(cache) == 3 and cache.verify()["ok"]
        assert not any(p.is_dir() for p in tmp_path.iterdir())  # no shard dirs

    def test_threads_share_one_connection(self, tmp_path):
        """More threads than cores putting and reading through one cache,
        as the serve daemon's request and completion threads do: no put
        is lost and the trigger-kept total still matches the rows."""
        import sys
        import threading

        cache = ResultCache(tmp_path, max_bytes=10**9)  # hits write ``used``
        shared = "ff" * 32
        errors = []

        def work(t):
            try:
                for i in range(40):
                    key = f"{t:02x}{i:02x}" + "0" * 60
                    cache.put(key, {"t": t, "i": i})
                    assert cache.get(key) == {"t": t, "i": i}
                    cache.put(shared, {"t": t})
                    cache.get(shared)
            except Exception as exc:  # reported below, with the thread's work
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert len(cache) == 6 * 40 + 1
        with _db(tmp_path) as db:
            summed = db.execute("SELECT total(length(entry)) FROM entries").fetchone()[0]
        assert cache.total_bytes() == summed

    def test_forked_sweep_then_serial_rerun_is_all_hits(self, tmp_path):
        from repro.engine import EngineConfig, run_sweep

        points = [seq_io_point("strassen", n, 48) for n in (8, 16, 32)]
        pooled = run_sweep(points, EngineConfig(workers=2, cache_dir=tmp_path))
        serial = run_sweep(points, EngineConfig(workers=0, cache_dir=tmp_path))
        assert serial.stats["cache_hits"] == len(points)
        assert [p.run.metrics for p in serial.points] == [
            p.run.metrics for p in pooled.points]
        assert (tmp_path / "cache.sqlite").is_file() and len(ResultCache(tmp_path)) == 3
