"""Unit tests for the content-addressed result cache and its keys."""

import json
import multiprocessing

import pytest

from repro.engine import CACHE_SCHEMA, ResultCache, code_version, point_key
from repro.engine.runners import seq_io_point


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
        """Entries stay byte-identical to the streamed ``json.dump`` form
        they had before ``put`` switched to a one-shot ``json.dumps``."""
        import io

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
        raw = (tmp_path / key[:2] / f"{key}.json").read_bytes()
        assert raw == json.dumps(payload, sort_keys=True).encode("utf-8")
        streamed = io.StringIO()
        json.dump(payload, streamed, sort_keys=True)
        assert raw == streamed.getvalue().encode("utf-8")

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ff" + "0" * 62) is None

    def test_sharded_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, {"metrics": {}})
        assert (tmp_path / "cd" / f"{key}.json").is_file()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ee" + "2" * 62
        cache.put(key, {"metrics": {}})
        (tmp_path / "ee" / f"{key}.json").write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_corrupt_entry_is_quarantined_and_reported(self, tmp_path):
        seen = []
        cache = ResultCache(tmp_path, on_corrupt=lambda k, p: seen.append((k, p)))
        key = "ee" + "5" * 62
        cache.put(key, {"metrics": {}})
        (tmp_path / "ee" / f"{key}.json").write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        # moved aside, not left to be overwritten blind
        assert not (tmp_path / "ee" / f"{key}.json").exists()
        (reported_key, dest), = seen
        assert reported_key == key
        assert dest.parent.name == "quarantine"
        assert dest.read_text(encoding="utf-8") == "{not json"
        # a fresh put works and the quarantined copy is not counted
        cache.put(key, {"metrics": {"io": 1}})
        assert cache.get(key) == {"metrics": {"io": 1}}
        assert len(cache) == 1

    def test_quarantine_names_never_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ee" + "6" * 62
        for _ in range(2):
            cache.put(key, {"metrics": {}})
            (tmp_path / "ee" / f"{key}.json").write_text("{x", encoding="utf-8")
            assert cache.get(key) is None
        assert len(list((tmp_path / "quarantine").iterdir())) == 2

    def test_corrupt_hit_counts_engine_metric(self, tmp_path):
        from repro.engine import EngineConfig, run_point, run_sweep
        from repro.engine.runners import seq_io_point as point
        from repro.obs.manifest import MANIFEST_NAME, RunManifest

        cache_dir = tmp_path / "cache"
        res = run_point(point("strassen", 8, 48), EngineConfig(cache_dir=cache_dir))
        path = cache_dir / res.key[:2] / f"{res.key}.json"
        path.write_text("garbage", encoding="utf-8")
        sweep_dir = tmp_path / "sweep"
        rerun = run_sweep([point("strassen", 8, 48)],
                          EngineConfig(cache_dir=cache_dir, sweep_dir=sweep_dir))
        assert rerun.stats["cache_hits"] == 0
        counters = RunManifest.load(sweep_dir / MANIFEST_NAME)["metrics"]["counters"]
        assert counters["engine.cache.corrupt"] == 1
        quarantined = [p.name for p in (cache_dir / "quarantine").iterdir()]
        assert quarantined == [f"{res.key}.json"]

    def test_verify_reports_corrupt_and_orphaned_tmp(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = "aa" + "7" * 62
        bad = "bb" + "7" * 62
        cache.put(good, {"metrics": {}})
        cache.put(bad, {"metrics": {}})
        (tmp_path / "bb" / f"{bad}.json").write_text("{", encoding="utf-8")
        (tmp_path / "aa" / "tmpleft.tmp").write_text("partial", encoding="utf-8")
        report = cache.verify()
        assert report["entries"] == 2
        assert not report["ok"]
        assert report["corrupt"] == [str(tmp_path / "bb" / f"{bad}.json")]
        assert report["orphaned_tmp"] == [str(tmp_path / "aa" / "tmpleft.tmp")]

    def test_verify_clean_cache_is_ok(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cc" + "8" * 62, {"metrics": {}})
        report = cache.verify()
        assert report["ok"] and report["entries"] == 1
        assert report["corrupt"] == [] and report["orphaned_tmp"] == []

    def test_cache_verify_cli(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        key = "dd" + "9" * 62
        cache.put(key, {"metrics": {}})
        assert main(["cache", "verify", str(tmp_path)]) == 0
        capsys.readouterr()
        (tmp_path / "dd" / f"{key}.json").write_text("{", encoding="utf-8")
        assert main(["cache", "verify", "--json", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["corrupt"] and not report["ok"]

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


def _quarantine_worker(cache_dir, key, rounds, barrier_go, barrier_done, queue):
    """One concurrent sweep repeatedly hitting the same corrupt entry."""
    cache = ResultCache(cache_dir)
    outcomes = []
    for _ in range(rounds):
        barrier_go.wait(timeout=30)  # parent has (re)written the corrupt file
        outcomes.append(cache.get(key))
        barrier_done.wait(timeout=30)
    queue.put(outcomes)


class TestQuarantineRace:
    """Regression for the `_quarantine` TOCTOU race: the old
    ``while dest.exists()`` serial probe let two concurrent sweeps pick the
    same quarantine name and the second ``os.replace`` clobbered the first
    quarantined file.  The destination is now *reserved* atomically
    (``O_CREAT | O_EXCL``), so every corrupt payload survives."""

    ROUNDS = 8

    def test_two_processes_never_clobber_quarantined_evidence(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        cache = ResultCache(tmp_path)
        key = "ab" + "c" * 62
        shard = tmp_path / key[:2] / f"{key}.json"
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
                payload = f"{{corrupt-round-{i}"
                shard.write_text(payload, encoding="utf-8")
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
        contents = {p.read_text(encoding="utf-8") for p in quarantined}
        assert contents == set(payloads)


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
        raw = (tmp_path / key[:2] / f"{key}.json").read_text()
        assert json.loads(raw) == {"metrics": {"io": 1.5}}

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
    """max_bytes: LRU eviction keyed on entry-file mtime."""

    def _key(self, i: int) -> str:
        return f"{i:02x}" + "e" * 62

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=0)

    def test_put_evicts_oldest_when_over_budget(self, tmp_path):
        import os

        payload = {"metrics": {"io": 1.0}, "pad": "x" * 200}
        probe = ResultCache(tmp_path)
        probe.put(self._key(99), payload)
        entry_size = (tmp_path / self._key(99)[:2] / f"{self._key(99)}.json").stat().st_size
        probe.clear()

        evicted = []
        cache = ResultCache(
            tmp_path, max_bytes=3 * entry_size, on_evict=evicted.append
        )
        for i in range(3):
            cache.put(self._key(i), payload)
            # distinct mtimes so LRU order is unambiguous
            os.utime(tmp_path / self._key(i)[:2] / f"{self._key(i)}.json",
                     (i, i))
        cache.put(self._key(3), payload)
        assert evicted == [self._key(0)]
        assert cache.get(self._key(0)) is None
        assert all(cache.get(self._key(i)) is not None for i in (1, 2, 3))
        assert cache.total_bytes() <= 3 * entry_size

    def test_get_refreshes_recency(self, tmp_path):
        import os

        payload = {"metrics": {"io": 1.0}, "pad": "x" * 200}
        probe = ResultCache(tmp_path)
        probe.put(self._key(99), payload)
        size = (tmp_path / self._key(99)[:2] / f"{self._key(99)}.json").stat().st_size
        probe.clear()

        evicted = []
        cache = ResultCache(tmp_path, max_bytes=2 * size, on_evict=evicted.append)
        cache.put(self._key(0), payload)
        cache.put(self._key(1), payload)
        for i in (0, 1):
            os.utime(tmp_path / self._key(i)[:2] / f"{self._key(i)}.json",
                     (i + 1, i + 1))
        cache.get(self._key(0))  # touch: key 0 becomes most recent
        cache.put(self._key(2), payload)
        assert evicted == [self._key(1)]
        assert cache.get(self._key(0)) is not None

    def test_no_budget_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(20):
            cache.put(self._key(i), {"pad": "x" * 500})
        assert cache.enforce_budget() == []
        assert len(cache) == 20

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
        (tmp_path / bad[:2] / f"{bad}.json").write_text("{", encoding="utf-8")
        orphan = tmp_path / "aa" / "leftover.tmp"
        orphan.write_text("partial", encoding="utf-8")

        report = cache.repair()
        assert not report["ok"]  # reports what was *found*
        assert len(report["repaired"]["quarantined"]) == 1
        assert report["repaired"]["removed_tmp"] == [str(orphan)]
        assert not orphan.exists()
        assert not (tmp_path / bad[:2] / f"{bad}.json").exists()
        assert (tmp_path / "quarantine" / f"{bad}.json").exists()
        assert cache.get(good) is not None
        assert cache.verify()["ok"]  # a second scan is clean

    def test_repair_on_clean_cache_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cc" + "d" * 62, {"metrics": {}})
        report = cache.repair()
        assert report["ok"]
        assert report["repaired"] == {"quarantined": [], "removed_tmp": []}

    def test_cache_verify_repair_cli(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        bad = "ee" + "f" * 62
        cache.put(bad, {"metrics": {}})
        (tmp_path / bad[:2] / f"{bad}.json").write_text("nope", encoding="utf-8")
        # corruption found → non-zero even though it was repaired
        assert main(["cache", "verify", "--repair", "--json", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["repaired"]["quarantined"]
        # the repair actually happened: a clean re-scan exits zero
        assert main(["cache", "verify", str(tmp_path)]) == 0
