"""Endpoint smoke for the scrape-only server: an ``IngestServer`` with no
ingest core (stdlib HTTP, loopback)."""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.guard.ladder import DegradationLadder
from repro.serving.server import IngestServer
from repro.telemetry import RingBufferSink, Telemetry, lint_prometheus
from repro.telemetry.httpd import PROMETHEUS_CONTENT_TYPE, ladder_health


def fetch(url: str):
    """GET → (status, content-type, body text); errors keep their body."""
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type"), err.read().decode()


@pytest.fixture
def tel() -> Telemetry:
    tel = Telemetry(enabled=True, sinks=[RingBufferSink()])
    tel.counter("fleet.device.samples", "per device", labels=("device",)).inc(
        5, device="dev-000"
    )
    tel.counter("fleet.device.samples", labels=("device",)).inc(3, device="dev-001")
    tel.histogram("lat", "latency").observe(0.2)
    return tel


class TestMetricsEndpoint:
    def test_serves_lint_clean_prometheus_text(self, tel):
        with IngestServer(None, telemetry=tel) as srv:
            status, ctype, body = fetch(srv.url + "/metrics")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        assert lint_prometheus(body) == []
        assert 'repro_fleet_device_samples{device="dev-000"} 5' in body
        assert 'repro_fleet_device_samples{device="dev-001"} 3' in body

    def test_port_zero_binds_a_real_port(self, tel):
        with IngestServer(None, telemetry=tel) as srv:
            assert srv.running and srv.port > 0
            assert srv.host == "127.0.0.1"

    def test_index_and_404(self, tel):
        with IngestServer(None, telemetry=tel) as srv:
            status, _, body = fetch(srv.url + "/")
            assert status == 200 and "/metrics" in body
            status, _, _ = fetch(srv.url + "/nope")
            assert status == 404

    def test_scrapes_are_counted(self, tel):
        with IngestServer(None, telemetry=tel) as srv:
            fetch(srv.url + "/metrics")
            fetch(srv.url + "/metrics")
        c = tel.registry.get("metrics_server.requests")
        assert c.value(path="/metrics") == 2.0

    def test_unknown_paths_share_one_series(self, tel):
        with IngestServer(None, telemetry=tel) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
            try:
                for i in range(1000):
                    conn.request("GET", f"/probe-{i}")
                    resp = conn.getresponse()
                    resp.read()
                    assert resp.status == 404
            finally:
                conn.close()
            fetch(srv.url + "/metrics")
        c = tel.registry.get("metrics_server.requests")
        assert len(c.samples()) <= 5
        assert c.value(path="other") == 1000.0
        assert c.value(path="/metrics") == 1.0

    def test_ingest_routes_404_without_a_core(self, tel):
        with IngestServer(None, telemetry=tel) as srv:
            assert fetch(srv.url + "/v1/ingest")[0] == 404
            assert fetch(srv.url + "/v1/devices/dev-000/results")[0] == 404
            req = urllib.request.Request(
                srv.url + "/v1/devices/dev-000/chunks",
                data=b'{"seq": 0, "X": [[0.0]], "y": [0]}',
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 404
            status, _, body = fetch(srv.url + "/")
            assert status == 200 and "/v1/" not in body


class TestHealthEndpoint:
    def test_404_until_configured(self, tel):
        with IngestServer(None, telemetry=tel) as srv:
            status, _, _ = fetch(srv.url + "/health")
        assert status == 404

    def test_healthy_ladder_reports_200(self, tel):
        ladder = DegradationLadder()
        srv = IngestServer(None, telemetry=tel, health_provider=ladder_health(ladder))
        with srv:
            status, _, body = fetch(srv.url + "/health")
        assert status == 200
        assert json.loads(body) == {
            "status": "ok", "level": "HEALTHY", "level_value": 0,
        }

    def test_degraded_ladder_reports_503(self, tel):
        ladder = DegradationLadder(trip_faults=3)
        for i in range(3):  # three faults in-window → SANITIZING
            ladder.record_fault(i)
        assert int(ladder.level) > 0
        srv = IngestServer(None, telemetry=tel, health_provider=ladder_health(ladder))
        with srv:
            status, _, body = fetch(srv.url + "/health")
        assert status == 503
        assert json.loads(body)["status"] == "degraded"

    def test_provider_exception_reports_503_not_crash(self, tel):
        def broken() -> dict:
            raise RuntimeError("boom")

        with IngestServer(None, telemetry=tel, health_provider=broken) as srv:
            status, _, body = fetch(srv.url + "/health")
            assert status == 503
            assert json.loads(body)["status"] == "error"
            # The server survives a broken provider.
            status, _, _ = fetch(srv.url + "/metrics")
            assert status == 200


class TestFleetEndpoint:
    def test_serves_fleet_provider_json(self, tel):
        stats = {"devices": 2, "evictions": 1, "device_samples": {"dev-000": 5}}
        srv = IngestServer(None, telemetry=tel, fleet_provider=lambda: stats)
        with srv:
            status, ctype, body = fetch(srv.url + "/fleet")
        assert status == 200
        assert ctype == "application/json"
        assert json.loads(body) == stats


class TestLifecycle:
    def test_stop_is_idempotent_and_frees_the_port(self, tel):
        srv = IngestServer(None, telemetry=tel).start()
        url = srv.url
        srv.stop()
        srv.stop()
        assert not srv.running
        with pytest.raises(urllib.error.URLError):
            fetch(url + "/metrics")
