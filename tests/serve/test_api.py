"""HTTP surface: a live daemon behind a real socket, driven by ServeClient.

Covers the endpoint contract end to end — liveness/readiness, the sync
cache fast path, async acceptance, per-point sweep dispositions, 429
backpressure with a Retry-After hint, and the graceful drain — all over
loopback keep-alive connections, the deployment shape of ``repro serve``.
"""

import threading

import pytest

from repro.serve import Daemon, ServeClient, ServeConfig, ServeError
from repro.serve.api import build_server

KIND = "seq_io"


def _params(n=8, M=48):
    return {"alg": "strassen", "n": n, "M": M, "seed": 0, "replay": True}


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """One fully-started daemon shared by the read-mostly tests."""
    tmp = tmp_path_factory.mktemp("serve-api")
    daemon = Daemon(ServeConfig(serve_dir=tmp / "serve", workers=1,
                                wal_sync="batch"))
    host, port = daemon.start()
    client = ServeClient(host, port)
    yield daemon, client
    client.close()
    daemon.stop()


class TestHealth:
    def test_healthz(self, live):
        _, client = live
        assert client.healthz()

    def test_readyz_while_admitting(self, live):
        _, client = live
        assert client.readyz()

    def test_status_and_metrics_shape(self, live):
        _, client = live
        status = client.status()
        assert status["breaker"]["state"] == "closed"
        assert "queue_depth" in status
        metrics = client.metrics()
        assert "counters" in metrics or metrics  # registry snapshot

    def test_unknown_endpoint_404(self, live):
        _, client = live
        with pytest.raises(ServeError) as exc_info:
            client.job("")  # GET /job/ → unknown path
        assert exc_info.value.status == 404


class TestPoint:
    def test_execute_then_cache(self, live):
        _, client = live
        first = client.point(KIND, _params(), wait_s=60)
        assert first["result"]["status"] == "ok"
        assert first["served"] == "executed"
        second = client.point(KIND, _params())
        assert second["served"] == "cache"
        assert second["result"]["metrics"] == first["result"]["metrics"]

    def test_async_acceptance_and_poll(self, live):
        _, client = live
        accepted = client.point(KIND, _params(n=16))
        assert "job_id" in accepted  # 202: no wait requested
        info = client.wait_for_job(accepted["job_id"], timeout=60)
        assert info["state"] == "done"
        assert info["result"]["status"] == "ok"

    def test_expired_deadline_answers_timeout(self, live):
        _, client = live
        resp = client.point(KIND, _params(n=12), deadline_s=0.0, wait_s=30)
        assert resp["result"]["status"] == "timeout"

    def test_invalid_body_is_400(self, live):
        _, client = live
        with pytest.raises(ServeError) as exc_info:
            client.point(KIND, params=None)  # type: ignore[arg-type]
        assert exc_info.value.status == 400

    def test_idempotent_resubmission_over_http(self, live):
        _, client = live
        a = client.point(KIND, _params(n=20), job_id="api-idem-1", wait_s=60)
        b = client.point(KIND, _params(n=20), job_id="api-idem-1", wait_s=60)
        assert a["result"]["metrics"] == b["result"]["metrics"]


class TestSweep:
    def test_bulk_dispositions(self, live):
        _, client = live
        resp = client.sweep([
            {"kind": KIND, "params": _params()},        # cached by TestPoint
            {"kind": KIND, "params": _params(n=24)},    # fresh → accepted
            {"kind": "nope"},                            # invalid
        ])
        dispositions = [p["disposition"] for p in resp["points"]]
        assert dispositions == ["cached", "accepted", "invalid"]
        job_id = resp["points"][1]["job_id"]
        assert client.wait_for_job(job_id, timeout=60)["state"] == "done"


class TestBackpressure:
    def test_429_with_retry_hint_when_queue_is_full(self, tmp_path):
        """No dispatchers running → the queue fills at its bound and
        admission answers 429 + Retry-After instead of growing."""
        daemon = Daemon(ServeConfig(serve_dir=tmp_path / "serve", workers=1,
                                    queue_depth=1, retry_after_s=2.0,
                                    wal_sync="off"))
        server = build_server(daemon, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(*server.server_address[:2])
        try:
            first = client.point(KIND, _params(n=8))
            assert "job_id" in first
            with pytest.raises(ServeError) as exc_info:
                client.point(KIND, _params(n=16))
            assert exc_info.value.status == 429
            assert exc_info.value.payload["retry_after_s"] == 2.0
        finally:
            client.close()
            server.shutdown()
            server.server_close()


class TestDrain:
    def test_shutdown_flips_readyz_and_refuses_work(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.daemon.DRAIN_TIMEOUT_S", 5.0)
        daemon = Daemon(ServeConfig(serve_dir=tmp_path / "serve", workers=1,
                                    wal_sync="off",
                                    allow_remote_shutdown=True))
        host, port = daemon.start()
        client = ServeClient(host, port)
        try:
            assert client.readyz()
            assert client.shutdown() == {"draining": True}
            assert not client.readyz()
            with pytest.raises(ServeError) as exc_info:
                client.point(KIND, _params())
            assert exc_info.value.status == 503
        finally:
            client.close()
            daemon.stop()
        assert not (daemon.config.serve_dir / "endpoint.json").exists()

    def test_remote_shutdown_disabled_by_default(self, live):
        _, client = live
        with pytest.raises(ServeError) as exc_info:
            client.shutdown()
        assert exc_info.value.status == 403
