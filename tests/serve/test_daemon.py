"""Daemon semantics, exercised in-process without the HTTP layer.

Admission, coalescing, deadlines, idempotent resubmission, the WAL
durability ordering, and crash-restart replay — each driven directly
through :class:`Daemon` methods so the tests are deterministic (no
dispatcher races): jobs are pulled and dispatched by hand.
"""

import json

import pytest

from repro.analysis.results import RunResult
from repro.engine.keys import point_key
from repro.engine.wal import encode, iter_records
from repro.serve import Daemon, DrainingError, QueueFull, ServeConfig, WriteAheadLog
from repro.serve.daemon import WAL_NAME
from repro.serve.wal import fold_records

KIND = "seq_io"


def _params(n=8, M=48):
    return {"alg": "strassen", "n": n, "M": M, "seed": 0, "replay": True}


def _config(tmp_path, **kw):
    kw.setdefault("workers", 1)
    return ServeConfig(serve_dir=tmp_path / "serve", **kw)


def _dispatch_one(daemon):
    job = daemon.queue.get(timeout=1.0)
    assert job is not None, "expected a queued job"
    daemon._dispatch(job)
    return job


class TestExecutionPath:
    def test_submit_dispatch_complete(self, tmp_path):
        d = Daemon(_config(tmp_path))
        job = d.submit(KIND, _params())
        assert job.state == "queued"
        _dispatch_one(d)
        assert job.done_event.is_set()
        assert job.result["status"] == "ok"
        assert job.result["metrics"]  # a real execution, not a stub
        assert d.metrics.value("serve.jobs.done") == 1.0

    def test_completed_point_feeds_the_sync_fast_path(self, tmp_path):
        d = Daemon(_config(tmp_path))
        job = d.submit(KIND, _params())
        _dispatch_one(d)
        answer = d.cached_answer(KIND, _params())
        assert answer is not None
        assert answer["cached"] is True
        assert answer["metrics"] == job.result["metrics"]

    def test_uncached_point_has_no_fast_path(self, tmp_path):
        d = Daemon(_config(tmp_path))
        assert d.cached_answer(KIND, _params()) is None

    def test_dispatch_rechecks_the_cache(self, tmp_path):
        """A leader that finished between admission and dispatch already
        filled the cache — the duplicate must not re-execute."""
        d = Daemon(_config(tmp_path))
        d.submit(KIND, _params())
        _dispatch_one(d)
        dup = d.submit(KIND, _params())
        _dispatch_one(d)
        assert dup.result["cached"] is True


class TestCoalescing:
    def test_identical_inflight_points_execute_once(self, tmp_path):
        d = Daemon(_config(tmp_path))
        leader = d.submit(KIND, _params())
        follower = d.submit(KIND, _params())
        assert len(d.queue) == 1  # the follower never entered the queue
        assert d.metrics.value("serve.coalesced") == 1.0
        _dispatch_one(d)
        assert leader.done_event.is_set() and follower.done_event.is_set()
        assert follower.result["metrics"] == leader.result["metrics"]

    def test_followers_get_their_own_done_records(self, tmp_path):
        """Replay must find every acknowledged job answered, follower or
        not — so the WAL carries a terminal record per job id."""
        d = Daemon(_config(tmp_path))
        d.submit(KIND, _params())
        d.submit(KIND, _params())
        _dispatch_one(d)
        d.wal.sync()
        records = list(iter_records(d.config.serve_dir / WAL_NAME))
        assert sum(1 for r in records if r["type"] == "done") == 2
        assert sum(1 for r in records if r["type"] == "coalesce") == 1


class TestDeadlines:
    def test_expired_deadline_fails_fast_without_execution(self, tmp_path):
        d = Daemon(_config(tmp_path))
        job = d.submit(KIND, _params(), deadline_s=0.0)
        _dispatch_one(d)
        assert job.state == "failed"
        assert job.result["status"] == "timeout"
        assert job.result["error"]["type"] == "DeadlineExceeded"
        assert d.metrics.value("serve.jobs.expired") == 1.0

    def test_budget_is_the_tightest_limit(self, tmp_path):
        d = Daemon(_config(tmp_path))
        d.config.engine.point_timeout_s = 100.0
        with_deadline = d.submit(KIND, _params(), deadline_s=5.0)
        assert d._budget_s(with_deadline) == pytest.approx(5.0, abs=0.5)
        without = d.submit(KIND, _params(n=16))
        assert d._budget_s(without) == 100.0


class TestAdmission:
    def test_resubmission_with_same_id_is_idempotent(self, tmp_path):
        d = Daemon(_config(tmp_path))
        first = d.submit(KIND, _params(), job_id="req-1")
        again = d.submit(KIND, _params(), job_id="req-1")
        assert again is first
        assert len(d.queue) == 1
        assert d.metrics.value("serve.resubmitted") == 1.0

    def test_queue_full_refuses_and_releases_leadership(self, tmp_path):
        d = Daemon(_config(tmp_path, queue_depth=1))
        d.submit(KIND, _params(n=8))
        with pytest.raises(QueueFull):
            d.submit(KIND, _params(n=16))
        assert d.metrics.value("serve.rejected") == 1.0
        # the refused point's key is free again: admitting it later works
        assert d.coalescer.in_flight() == 1

    def test_draining_daemon_admits_nothing(self, tmp_path):
        d = Daemon(_config(tmp_path))
        d.draining.set()
        with pytest.raises(DrainingError):
            d.submit(KIND, _params())

    def test_wal_records_precede_the_ack(self, tmp_path):
        d = Daemon(_config(tmp_path))
        job = d.submit(KIND, _params())
        d.wal.sync()
        records = list(iter_records(d.config.serve_dir / WAL_NAME))
        assert [r["type"] for r in records] == ["submit"]
        assert records[0]["id"] == job.id
        assert records[0]["key"] == job.key


class TestReplay:
    def test_restart_replays_pending_and_answers_done(self, tmp_path):
        d1 = Daemon(_config(tmp_path))
        answered = d1.submit(KIND, _params(n=8))
        _dispatch_one(d1)
        pending = d1.submit(KIND, _params(n=16))
        d1.wal.sync()  # simulate SIGKILL here: no stop(), no drain

        d2 = Daemon(_config(tmp_path))
        d2._replay()
        # the answered job is immediately answerable, not re-queued
        recovered = d2.lookup(answered.id)
        assert recovered.done_event.is_set()
        assert recovered.result["status"] == "ok"
        # the pending job is back in the queue exactly once
        assert d2.lookup(pending.id).state == "queued"
        assert len(d2.queue) == 1
        assert d2.replayed == 1
        assert d2.metrics.value("serve.wal.replayed") == 1.0

    def test_replayed_job_executes_to_completion(self, tmp_path):
        d1 = Daemon(_config(tmp_path))
        lost = d1.submit(KIND, _params())
        d1.wal.sync()
        d2 = Daemon(_config(tmp_path))
        d2._replay()
        _dispatch_one(d2)
        assert d2.lookup(lost.id).result["status"] == "ok"

    def test_follower_of_an_answered_leader_is_finished_at_replay(self, tmp_path):
        """Crash after the leader's done record but before the follower's:
        replay hands the follower its copy instead of re-executing."""
        serve_dir = tmp_path / "serve"
        serve_dir.mkdir(parents=True)
        key = point_key(KIND, _params())
        result = RunResult(key=key, kind=KIND, params=_params(),
                           metrics={"io": 42.0}, cached=False,
                           wall_time_s=0.1).to_dict()
        wal = WriteAheadLog(serve_dir / WAL_NAME)
        wal.append({"type": "submit", "id": "lead", "kind": KIND,
                    "params": _params(), "key": key, "deadline": None,
                    "submitted_at": 1.0})
        wal.append({"type": "submit", "id": "tail", "kind": KIND,
                    "params": _params(), "key": key, "deadline": None,
                    "submitted_at": 2.0})
        wal.append({"type": "coalesce", "id": "tail", "into": "lead"})
        wal.append({"type": "done", "id": "lead", "result": result})
        wal.close()

        d = Daemon(_config(tmp_path))
        d._replay()
        follower = d.lookup("tail")
        assert follower.done_event.is_set()
        assert follower.result["metrics"] == {"io": 42.0}
        assert len(d.queue) == 0  # nothing left to execute

    def test_torn_done_record_is_truncated_before_replay_appends(self, tmp_path):
        """Crash half-way through the first follower's done record: the
        restarted daemon drops the torn line before it appends the
        followers' done records, instead of gluing one onto it."""
        serve_dir = tmp_path / "serve"
        serve_dir.mkdir(parents=True)
        key = point_key(KIND, _params())
        result = RunResult(key=key, kind=KIND, params=_params(),
                           metrics={"io": 42.0}, cached=False,
                           wall_time_s=0.1).to_dict()
        wal = WriteAheadLog(serve_dir / WAL_NAME)
        for i, jid in enumerate(("lead", "f1", "f2")):
            wal.append({"type": "submit", "id": jid, "kind": KIND,
                        "params": _params(), "key": key, "deadline": None,
                        "submitted_at": float(i)})
        for jid in ("f1", "f2"):
            wal.append({"type": "coalesce", "id": jid, "into": "lead"})
        wal.append({"type": "done", "id": "lead", "result": result})
        wal.close()
        torn = encode({"type": "done", "id": "f1", "result": result})
        with (serve_dir / WAL_NAME).open("ab") as fh:
            fh.write(torn[: len(torn) // 2])

        with pytest.warns(RuntimeWarning, match="truncated final line"):
            d = Daemon(_config(tmp_path))
        d._replay()
        assert [d.lookup(jid).state for jid in ("f1", "f2")] == ["done", "done"]
        ledger = fold_records(iter_records(serve_dir / WAL_NAME))
        assert [ledger[jid]["status"] for jid in ("f1", "f2")] == ["done", "done"]

    def test_replay_compacts_the_log(self, tmp_path):
        d1 = Daemon(_config(tmp_path))
        d1.submit(KIND, _params())
        _dispatch_one(d1)
        _dispatch_one_noop = d1.submit(KIND, _params(n=16))  # noqa: F841
        d1.wal.sync()
        before = (d1.config.serve_dir / WAL_NAME).stat().st_size

        d2 = Daemon(_config(tmp_path))
        d2._replay()
        after = (d2.config.serve_dir / WAL_NAME).stat().st_size
        assert after <= before
        # compaction preserved both the terminal and the pending job
        ledger = dict(d2.wal.replay())
        assert sorted(e["status"] for e in ledger.values()) == ["done", "pending"]


class TestTerminalJobBound:
    def test_daemon_keeps_as_many_terminal_jobs_as_compaction(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.wal.KEEP_TERMINAL", 4)
        d = Daemon(_config(tmp_path))
        jobs = []
        for M in range(40, 50):  # ten distinct points
            jobs.append(d.submit(KIND, _params(M=M)))
            job = d.queue.get(timeout=1.0)
            if M == 40:  # one retried job: its attempt count is tracked
                d._retry_or_fail(job, "error", "BrokenProcessPool", "lost")
                assert d._job_attempts == {job.id: 1}
                job = d.queue.get(timeout=1.0)
            d._dispatch(job)
        assert all(job.result["status"] == "ok" for job in jobs)
        assert sum(j.state == "done" for j in d._jobs.values()) <= 4
        assert d._job_attempts == {}
        kept = {j.id for j in jobs if d.lookup(j.id) is not None}
        assert kept == {j.id for j in jobs[-4:]}

        # a restart's compaction keeps the same ids answerable
        d.wal.sync()
        d2 = Daemon(_config(tmp_path))
        d2._replay()
        assert {j.id for j in jobs if d2.lookup(j.id) is not None} == kept


class TestMemCache:
    def test_lru_evicts_the_coldest_entry(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.daemon.MEM_CACHE_ENTRIES", 2)
        d = Daemon(_config(tmp_path))
        d._mem_put("k1", {"status": "ok", "n": 1})
        d._mem_put("k2", {"status": "ok", "n": 2})
        d._mem_put("k3", {"status": "ok", "n": 3})
        assert list(d._mem_cache) == ["k2", "k3"]


class TestIntrospection:
    def test_stats_are_json_serializable(self, tmp_path):
        d = Daemon(_config(tmp_path))
        d.submit(KIND, _params())
        payload = json.loads(json.dumps(d.stats()))
        assert payload["submitted"] == 1.0
        assert payload["queue_depth"] == 1.0
        assert payload["breaker"]["state"] == "closed"

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="wal_sync"):
            ServeConfig(serve_dir=tmp_path, wal_sync="never")
        with pytest.raises(ValueError, match="queue_depth"):
            ServeConfig(serve_dir=tmp_path, queue_depth=0)

    def test_engine_cache_defaults_into_serve_dir(self, tmp_path):
        cfg = _config(tmp_path)
        assert cfg.engine.cache_dir == cfg.serve_dir / "cache"
