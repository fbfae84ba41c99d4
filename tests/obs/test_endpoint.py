"""The live HTTP endpoint: serve_runtime(telemetry_port=0) must serve
valid Prometheus text, a JSON snapshot, and trace trees while the
runtime is answering requests (tier-1 smoke for the scrape path)."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.api import fit_nn, serve_runtime
from repro.obs import TelemetryServer, Telemetry, parse_prometheus_text


def fetch(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read()


class TestTelemetryServer:
    def test_ephemeral_port_and_close(self):
        tel = Telemetry()
        tel.registry.register_collector(lambda buffer: buffer.gauge("up", 1))
        server = TelemetryServer(tel, port=0)
        try:
            assert server.port > 0
            assert server.url.endswith(str(server.port))
            text = fetch(f"{server.url}/metrics").decode()
            assert parse_prometheus_text(text)["series"]["up"][()] == 1.0
        finally:
            server.close()

    def test_unknown_path_404(self):
        server = TelemetryServer(Telemetry(), port=0)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                fetch(f"{server.url}/nope")
            assert err.value.code == 404
        finally:
            server.close()


class TestLiveRuntimeEndpoint:
    def test_scrape_live_runtime(self, db, binary_star):
        nn = fit_nn(db, binary_star.spec, hidden_sizes=(8,), epochs=1)
        with serve_runtime(
            db, num_workers=2, telemetry_port=0
        ) as runtime:
            # telemetry_port implies telemetry=True.
            assert runtime.telemetry.enabled
            runtime.register_nn("m", nn, binary_star.spec)
            rng = np.random.default_rng(3)
            xs = rng.normal(size=(32, 3))
            fks = rng.integers(0, 25, size=(32, 1))
            futures = [
                runtime.submit("m", xs[i : i + 4], fks[i : i + 4])
                for i in range(0, 32, 4)
            ]
            for future in futures:
                future.result()

            base = runtime.telemetry_server.url

            # /metrics parses strictly and shows the served requests.
            parsed = parse_prometheus_text(fetch(f"{base}/metrics").decode())
            series = parsed["series"]
            key = (("model", "m"), ("op", "predict"))
            assert series["repro_requests_total"][key] == 8.0
            assert parsed["types"]["repro_queue_depth"] == "gauge"
            # Collector-sampled families made it out too.
            assert any(
                name.startswith("repro_cache_") for name in series
            )
            assert any(
                name.startswith("repro_bufferpool_") for name in series
            )

            # /snapshot.json is valid JSON with the same families.
            doc = json.loads(fetch(f"{base}/snapshot.json"))
            assert "repro_requests_total" in doc["metrics"]

            # /traces.json carries at least one full span tree.
            traces = json.loads(fetch(f"{base}/traces.json"))
            assert traces["recent"]
            root = traces["recent"][-1]
            names = {c["name"] for c in root["children"]}
            assert root["name"] == "serve.batch"
            assert {"queue.wait", "dedup", "plan", "predict"} <= names
        # Context-manager exit closed the HTTP server.
        with pytest.raises((urllib.error.URLError, OSError)):
            fetch(f"{base}/metrics")
