"""The repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the traced pass and reports the per-layer metrics.
The metric names and units come from ``BENCHMARK.json`` at the root.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the provenance of the run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["reproduce", "sweep_cold", "serve_mixed"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


PR_SET_CHILD_SUBREAPER = 36
REAP_GRACE_S = 10.0


def _become_subreaper() -> None:
    """Adopt every orphaned descendant (the daemon's pool workers and
    resource tracker), so :func:`_reap_all` can wait for each of them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    me = str(os.getpid())
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me:
            kids.append(int(entry))
    return kids


def _reap_children() -> None:
    """Wait for every child process (pool workers included) to end."""
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()


def _reap_all() -> None:
    """Stop this process's resource tracker, then wait until no child is
    left: adopted orphans get :data:`REAP_GRACE_S` to end, then SIGKILL.
    As a subreaper with no children, no descendant of this run is alive."""
    _reap_children()
    try:
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()
    except (AttributeError, ChildProcessError, OSError):
        pass
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        kids = _children()
        if not kids:
            return
        for pid in kids:
            try:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.01)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _end_to_end(setups: list[float], m) -> dict:
    from common import percentile

    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(m.walls),
        "qps": m.attempted / m.elapsed,
        "p50_ms": percentile(m.calls, 50) * 1e3,
        "p99_ms": statistics.median(m.tails) * 1e3,
        "cold_p50_ms": percentile(m.cold, 50) * 1e3,
        "ok_share": 1.0 - m.failed / m.attempted,
    }


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))

    _become_subreaper()
    workdir = root / ".perfbench-tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        return _run(args, root, workdir, config)
    finally:
        _reap_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _run(args, root: Path, workdir: Path, config: dict) -> int:
    import numpy

    import points
    from batch import Reproduce, SweepCold
    from common import Context
    from repro.engine import code_version
    from serve import ServeMixed

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    ctx = Context(root, workdir, args.seed, args.seconds, expected)
    workload = {
        "reproduce": Reproduce,
        "sweep_cold": SweepCold,
        "serve_mixed": ServeMixed,
    }[args.workload](ctx)
    try:
        inputs_digest = points.digest(workload.inputs())
        setups = [workload.setup() for _ in range(workload.setup_repeats)]
        workload.prepare()
        if args.trace:
            values, attempted, failed = workload.trace()
            wanted = config["per_layer"]
        else:
            m = workload.measure()
            values = _end_to_end(setups, m)
            attempted, failed = m.attempted, m.failed
            wanted = config["end_to_end"]
    finally:
        stop = getattr(workload, "stop", None)
        if stop is not None:
            stop()
    _reap_children()
    if not args.trace:
        values["peak_rss_mb"] = _peak_rss_mb()

    provenance = {
        "git_sha": _git_sha(root),
        "code_version": code_version(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_digest": inputs_digest,
    }
    metrics = {
        spec["name"]: {"value": float(values.get(spec["name"], 0.0)),
                       "unit": spec["unit"]}
        for spec in wanted
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
