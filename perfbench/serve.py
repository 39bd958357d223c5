"""The ``serve_mixed`` workload: ``python -m repro serve`` under a closed
loop of warm and cold point queries.

The daemon runs as a subprocess, so the load generator never shares its
interpreter lock.  Two keep-alive clients each send their next request
only after the previous answer arrives, as a sweep client does.  95% of
requests are warm (drawn from the points primed during set-up, which fit
the daemon's in-memory LRU); 5% are cold (a symbolic ``seq_io`` point keyed
by the seed and the request index, so it misses every cache and goes
through the WAL, the queue and the pool).  Every answer must bit-match an
in-process ``execute_point`` of the same spec.

The traced pass repeats a shorter load against the subprocess (for the
client-side numbers and the daemon's ``/metrics``) and then calls
``Daemon.cached_answer`` and ``Daemon.submit`` directly on an in-process
daemon with its ``wal.append`` timed.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

import points
from common import Measurement, TracePass, percentile, remove, until
from spans import Spans

CLIENTS = 2
COLD_SHARE = 0.05
BLOCK = 500  # requests per iteration of wall_s
WAIT_S = 60.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def _canonical(metrics: dict) -> str:
    return json.dumps(metrics, sort_keys=True)


def reference(spec: dict) -> str:
    """The in-process answer every served result must bit-match."""
    from repro.engine import execute_point

    metrics, _, _ = execute_point(spec)
    return _canonical(json.loads(json.dumps(metrics)))


class DaemonProcess:
    """``python -m repro serve --workers 2`` in its own process group,
    always stopped (SIGTERM, then SIGKILL of the group on timeout)."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.dir = ctx.fresh_dir("serve-")
        self.proc: subprocess.Popen | None = None

    def start(self):
        from repro.serve import ServeClient

        log = open(self.dir / "daemon.log", "wb")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--dir", str(self.dir / "serve"), "--workers", "2"],
                cwd=self.ctx.root, env=self.ctx.env(), stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        finally:
            log.close()
        deadline = time.monotonic() + START_TIMEOUT_S
        endpoint = self.dir / "serve" / "endpoint.json"
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise TimeoutError("daemon did not publish its endpoint")
            try:
                info = json.loads(endpoint.read_text(encoding="utf-8"))
                client = ServeClient(info["host"], info["port"], timeout=WAIT_S)
                if client.readyz():
                    client.close()
                    return info["host"], info["port"]
            except (FileNotFoundError, json.JSONDecodeError, OSError):
                pass
            time.sleep(0.01)

    def stop(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
            try:  # pool workers share the daemon's process group
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            self.proc = None
        remove(self.dir)


class _Stream:
    """One closed-loop client: its own connection and seeded draw."""

    def __init__(self, seed: int, index: int, warm: list[dict]) -> None:
        self.seed = seed
        self.index = index
        self.warm = warm
        self.rng = random.Random(f"{seed}:{index}")
        self.cold_sent = 0
        # (finish time, latency, kind, spec index or cold spec, payload)
        self.log: list[tuple] = []

    def next_request(self) -> tuple[str, object, dict]:
        if self.rng.random() < COLD_SHARE:
            spec = points.cold_serve_point(self.seed, self.index, self.cold_sent)
            self.cold_sent += 1
            return "cold", spec, spec
        i = self.rng.randrange(len(self.warm))
        return "warm", i, self.warm[i]

    def run(self, host: str, port: int, stop_at: float) -> None:
        from repro.serve import ServeClient, ServeError

        client = ServeClient(host, port, timeout=WAIT_S)
        try:
            while time.perf_counter() < stop_at:
                kind, ref, spec = self.next_request()
                t0 = time.perf_counter()
                try:
                    payload = client.point(spec["kind"], spec["params"],
                                           wait_s=WAIT_S)
                except (ServeError, OSError) as exc:
                    payload = {"error": str(exc)}
                t1 = time.perf_counter()
                self.log.append((t1, t1 - t0, kind, ref, payload))
        finally:
            client.close()


class ServeMixed:
    """The daemon under a closed loop of mixed warm and cold queries."""

    setup_repeats = 3

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.warm = points.warm_serve_points(ctx.seed)
        self.daemon: DaemonProcess | None = None
        self.expected = [reference(spec) for spec in self.warm]

    def inputs(self) -> list:
        cold = [points.cold_serve_point(self.ctx.seed, s, i)
                for s in range(CLIENTS) for i in range(64)]
        return [self.warm, cold]

    # -- set-up ---------------------------------------------------------- #
    def setup(self) -> float:
        """Daemon start to ``readyz``, plus priming every warm point."""
        self.stop()
        t0 = time.perf_counter()
        self.daemon = DaemonProcess(self.ctx)
        self.address = self.daemon.start()
        failed = self._prime()
        seconds = time.perf_counter() - t0
        if failed:
            raise RuntimeError(f"priming: {failed} answers wrong")
        return seconds

    def _prime(self) -> int:
        from repro.serve import ServeClient

        bad = []

        def prime(share: list[int]) -> None:
            client = ServeClient(*self.address, timeout=WAIT_S)
            try:
                for i in share:
                    spec = self.warm[i]
                    out = client.point(spec["kind"], spec["params"], wait_s=WAIT_S)
                    if not self._ok(out, self.expected[i]):
                        bad.append(i)
            finally:
                client.close()

        threads = [threading.Thread(target=prime,
                                    args=(list(range(k, len(self.warm), CLIENTS)),))
                   for k in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return len(bad)

    def prepare(self) -> None:
        pass

    def stop(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    @staticmethod
    def _ok(payload: dict, expected: str) -> bool:
        result = payload.get("result") or {}
        return (result.get("status") == "ok"
                and _canonical(result.get("metrics")) == expected)

    # -- load ------------------------------------------------------------ #
    def _load(self, seconds: float):
        streams = [_Stream(self.ctx.seed, k, self.warm)
                   for k in range(CLIENTS)]
        start = time.perf_counter()
        stop_at = start + seconds
        threads = [threading.Thread(target=s.run, args=(*self.address, stop_at))
                   for s in streams]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log = sorted((e for s in streams for e in s.log), key=lambda e: e[0])
        return start, log

    def _measurement(self, start: float, log: list) -> Measurement:
        m = Measurement()
        cold_expected: dict[str, str] = {}
        block: list[float] = []  # warm latencies of the current block
        for i, (_, latency, kind, ref, payload) in enumerate(log, 1):
            if kind == "warm":
                ok = self._ok(payload, self.expected[ref])
                m.calls.append(latency)
                block.append(latency)
            else:
                key = json.dumps(ref, sort_keys=True)
                if key not in cold_expected:
                    cold_expected[key] = reference(ref)
                ok = self._ok(payload, cold_expected[key])
                m.cold.append(latency)
            m.attempted += 1
            m.failed += 0 if ok else 1
            if i % BLOCK == 0:
                m.tails.append(percentile(block, 99))
                block = []
        finish = [start] + [e[0] for e in log]
        for k in range(BLOCK, len(finish), BLOCK):
            m.walls.append(finish[k] - finish[k - BLOCK])
        m.elapsed = finish[-1] - start
        return m

    def measure(self) -> Measurement:
        start, log = self._load(self.ctx.seconds)
        return self._measurement(start, log)

    # -- traced pass ----------------------------------------------------- #
    def trace(self) -> tuple[dict, int, int]:
        from repro.serve import ServeClient

        start, log = self._load(self.ctx.seconds / 2)
        m = self._measurement(start, log)
        client = ServeClient(*self.address, timeout=WAIT_S)
        try:
            snap = client.metrics()
        finally:
            client.close()
        self.stop()
        counters = snap.get("counters", {})
        values = {
            name: float(counters.get(name, 0))
            for name in ("serve.cache.hit.mem", "serve.accepted",
                         "serve.coalesced", "serve.rejected")
        }
        values["serve.job.wall_ms"] = histogram_median(
            snap.get("histograms", {}).get("serve.job.wall_ms"))
        inproc, attempted, failed = self._trace_in_process()
        values.update(inproc)
        values["serve.api.http_ms"] = (
            percentile(m.calls, 50) * 1e3 - values["serve.daemon.cached_answer_us"] / 1e3
        )
        return values, m.attempted + attempted, m.failed + failed

    def _trace_in_process(self) -> tuple[dict, int, int]:
        from repro.engine import EngineConfig
        from repro.serve import Daemon, ServeConfig

        d_dir = self.ctx.fresh_dir("serve-inproc-")
        daemon = Daemon(ServeConfig(serve_dir=d_dir, workers=2,
                                    engine=EngineConfig(workers=2)))
        daemon.start()
        appends: list[float] = []
        lock = threading.Lock()
        original_append = daemon.wal.append

        def timed_append(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original_append(*args, **kwargs)
            finally:
                with lock:
                    appends.append(time.perf_counter() - t0)

        attempted = failed = 0
        plain, traced, seen = [], [], []
        try:
            for spec in self.warm:  # prime
                job = daemon.submit(spec["kind"], spec["params"])
                job.done_event.wait(WAIT_S)
            stream = _Stream(self.ctx.seed, CLIENTS + 1, self.warm)

            def block(spans: Spans | None) -> float:
                nonlocal attempted, failed
                answer, submit = daemon.cached_answer, daemon.submit
                wait = lambda job: job.done_event.wait(WAIT_S)  # noqa: E731
                if spans is not None:
                    answer = spans.wrap(answer, "serve.daemon.cached_answer")
                    submit = spans.wrap(submit, "serve.daemon.submit")
                    wait = spans.wrap(wait, "serve.daemon.job_wait")
                outs = []
                t0 = time.perf_counter()
                for _ in range(BLOCK):
                    kind, ref, spec = stream.next_request()
                    if kind == "warm":
                        outs.append((ref, answer(spec["kind"], spec["params"])))
                    else:
                        job = submit(spec["kind"], spec["params"])
                        wait(job)
                        outs.append((spec, job.result))
                wall = time.perf_counter() - t0
                for ref, result in outs:
                    want = (self.expected[ref] if isinstance(ref, int)
                            else reference(ref))
                    failed += 0 if self._ok({"result": result}, want) else 1
                attempted += len(outs)
                return wall

            def pair():
                plain.append(block(None))
                spans = Spans()
                daemon.wal.append = timed_append
                try:
                    traced.append(block(spans))
                finally:
                    del daemon.wal.append
                seen.append(spans)

            until(self.ctx.seconds / 2, pair, minimum=1)
        finally:
            daemon.stop()
            remove(d_dir)
        answers = [x for s in seen for x in s.samples["serve.daemon.cached_answer"]]
        return {
            "serve.daemon.cached_answer_us": statistics.median(answers) * 1e6,
            "serve.wal.append_us": statistics.median(appends) * 1e6,
            **TracePass(seen, plain, traced, []).shares(),
        }, attempted, failed


def histogram_median(h: dict | None) -> float:
    """Median of an exact-bucket histogram, interpolated inside its bucket."""
    if not h or not h.get("count"):
        return 0.0
    half = h["count"] / 2.0
    lower, seen = 0.0, 0
    for bound, count in zip(h["buckets"], h["counts"]):
        if count and seen + count >= half:
            return lower + (bound - lower) * (half - seen) / count
        seen += count
        lower = float(bound)
    return float(h.get("max") or lower)
