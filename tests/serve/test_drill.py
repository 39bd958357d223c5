"""The chaos drill's own hygiene: it starts from a clean directory and
leaves no daemon process behind."""

import os
import sys
import time
from pathlib import Path

import pytest

from repro.serve import drill


def test_drill_clears_stale_counters_and_scenario_dirs(tmp_path, monkeypatch):
    """A spent crash counter from an earlier drill must not survive into
    the next one, or the breaker scenario never sees its crash."""
    spent = tmp_path / "fault-counters" / "breaker" / "r0-deadbeef.1"
    spent.parent.mkdir(parents=True)
    spent.write_text("")
    for name in ("backpressure", "breaker", "restart"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "serve.wal").write_text("stale\n")
    (tmp_path / "keep.txt").write_text("not the drill's")

    seen = {}

    def stub(base, python, checks, details, faults_dir, _name):
        seen[_name] = not faults_dir.exists() or not any(faults_dir.rglob("*"))
        checks[_name] = True

    for name in ("backpressure", "breaker", "kill_restart"):
        monkeypatch.setattr(
            drill, f"_drill_{name}",
            lambda *args, _name=name: stub(*args, _name=_name),
        )
    assert drill.run_drill(tmp_path)["ok"]
    assert seen == {"backpressure": True, "breaker": True, "kill_restart": True}
    assert not any((tmp_path / name).exists()
                   for name in ("backpressure", "breaker", "restart"))
    assert (tmp_path / "keep.txt").read_text() == "not the drill's"


def _live_group_members(pgid: int) -> list[int]:
    """Non-zombie processes whose process group is ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # "pid (comm) state ppid pgrp ..." — comm may hold spaces
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_kill_path_leaves_no_daemon_process(tmp_path):
    """SIGKILLing a daemon must take its spawned pool workers and the
    multiprocessing resource tracker with it (``--workers 1`` runs jobs
    in the daemon itself, so the pool needs two)."""
    serve_dir = tmp_path / "serve"
    proc = drill._spawn_daemon(serve_dir, python=sys.executable,
                               extra_flags=["--workers", "2"])
    pgid = os.getpgid(proc.pid)
    client = None
    try:
        client = drill._connect(serve_dir, proc)
        resp = client.point(**drill._point(M=48), wait_s=90)
        assert resp["result"]["status"] == "ok"
        assert len(_live_group_members(pgid)) > 1  # the daemon and its pool
        drill._kill_group(proc)
        deadline = time.monotonic() + 10.0
        while _live_group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _live_group_members(pgid) == []
    finally:
        drill._stop(proc, client)
