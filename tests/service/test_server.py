"""ServiceServer over real HTTP: routes, backpressure, drain, byte-identity.

Most tests inject a fake executor (fast, deterministic); the byte-identity
class runs the *real* pipeline against a pre-trained model and compares the
service's result bytes with the CLI ``--json`` output for the same spec —
the PR's headline invariant, asserted over the wire.
"""

from __future__ import annotations

import contextlib
import io
import json
import threading
import time
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.errors import ReproError, ServiceError, ServiceSaturatedError
from repro.service import ServiceClient, ServiceQueue, ServiceServer


def spec_for(seed: int) -> dict:
    return {"kind": "detect", "benchmark": "NW", "seed": seed}


class GatedExecutor:
    def __init__(self) -> None:
        self.gate = threading.Event()
        self.started = threading.Semaphore(0)
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, spec: dict) -> dict:
        with self._lock:
            self.calls += 1
        self.started.release()
        assert self.gate.wait(timeout=30.0), "gate never opened"
        return {"echo": spec["seed"]}


@pytest.fixture
def gated():
    ex = GatedExecutor()
    yield ex
    ex.gate.set()  # never leave a worker thread parked


def make_server(executor, *, workers=2, capacity=8, rate=None, burst=10.0,
                **queue_kw) -> ServiceServer:
    queue_kw.setdefault("telemetry_enabled", False)
    q = ServiceQueue(executor=executor, workers=workers, capacity=capacity,
                     **queue_kw)
    return ServiceServer(q, port=0, rate=rate, burst=burst)


def raw_status(url: str) -> int:
    """HTTP status of a GET without urllib's error-raising sugar."""
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status
    except urllib.error.HTTPError as exc:
        return exc.code


class TestRoutes:
    def test_submit_poll_result_round_trip(self, gated):
        gated.gate.set()
        with make_server(gated) as server:
            client = ServiceClient(server.url)
            status = client.submit(spec_for(1))
            assert status["state"] in ("queued", "running")
            assert status["id"].startswith("job-")
            result = client.wait(status["id"], timeout=30)
            assert result == {"echo": 1}
            assert client.status(status["id"])["state"] == "done"

    def test_unknown_job_is_404(self, gated):
        with make_server(gated) as server:
            assert raw_status(f"{server.url}/v1/jobs/job-999999") == 404
            assert raw_status(f"{server.url}/v1/jobs/job-999999/result") == 404

    def test_result_while_running_is_409(self, gated):
        with make_server(gated, workers=1) as server:
            client = ServiceClient(server.url)
            job_id = client.submit(spec_for(1))["id"]
            gated.started.acquire(timeout=10)
            assert raw_status(f"{server.url}/v1/jobs/{job_id}/result") == 409
            gated.gate.set()

    def test_failed_job_result_is_500_with_error(self):
        def failing(spec):
            raise ReproError("no such luck")

        with make_server(failing) as server:
            client = ServiceClient(server.url)
            job_id = client.submit(spec_for(1))["id"]
            with pytest.raises(ServiceError, match="no such luck"):
                client.wait(job_id, timeout=30)

    def test_malformed_spec_is_400(self, gated):
        with make_server(gated) as server:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError, match="HTTP 400"):
                client.submit({"kind": "nonsense"})

    def test_non_json_body_is_400(self, gated):
        with make_server(gated) as server:
            req = urllib.request.Request(
                f"{server.url}/v1/jobs", data=b"{not json", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(req, timeout=5)
            assert exc_info.value.code == 400

    def test_unknown_route_is_404(self, gated):
        with make_server(gated) as server:
            assert raw_status(f"{server.url}/v2/nope") == 404

    def test_health_and_ready(self, gated):
        with make_server(gated) as server:
            client = ServiceClient(server.url)
            assert client.healthy()
            assert client.ready()


class TestBackpressure:
    def test_queue_full_gives_429_with_retry_after(self, gated):
        with make_server(gated, workers=1, capacity=1,
                         retry_after_s=3.0) as server:
            client = ServiceClient(server.url)
            client.submit(spec_for(0))
            gated.started.acquire(timeout=10)
            client.submit(spec_for(1))  # fills the only queue slot
            with pytest.raises(ServiceSaturatedError) as exc_info:
                client.submit(spec_for(2))
            assert exc_info.value.retry_after == pytest.approx(3.0)
            gated.gate.set()

    def test_rate_limit_gives_429(self, gated):
        gated.gate.set()
        with make_server(gated, rate=0.001, burst=2) as server:
            client = ServiceClient(server.url)
            client.submit(spec_for(0))
            client.submit(spec_for(1))
            with pytest.raises(ServiceSaturatedError) as exc_info:
                client.submit(spec_for(2))
            assert exc_info.value.retry_after > 0

    def test_rate_limiter_bucket_map_stays_bounded(self, gated):
        """Regression: flooding distinct clients must not grow the
        per-client bucket map forever, while active clients keep their
        refill state across sweeps."""
        clock_now = [0.0]
        q = ServiceQueue(executor=gated, workers=1, telemetry_enabled=False)
        server = ServiceServer(
            q, port=0, rate=10.0, burst=2.0,
            bucket_ttl_s=60.0, clock=lambda: clock_now[0],
        )
        try:
            active = server.limiter_for("active-client")
            assert active is not None and active.try_acquire()  # 1 token left

            n_flood = 500
            for i in range(n_flood):
                server.limiter_for(f"drive-by-{i}")
            assert len(server._buckets) == n_flood + 1

            # Keep the active client warm past the idle TTL; drive-bys
            # refill to full and age out at the next sweep.
            clock_now[0] = 61.0
            assert server.limiter_for("active-client") is active
            server.limiter_for("trigger-sweep")
            assert len(server._buckets) == 2  # active + trigger only
            assert server._buckets["active-client"] is active
            gauge = q.metrics.gauge("service.rate_limiter_buckets")
            assert gauge.value == 2

            # A second flood is swept just the same: the map is bounded by
            # the active set, not by the total distinct clients ever seen.
            for i in range(n_flood):
                server.limiter_for(f"second-wave-{i}")
            clock_now[0] = 130.0
            server.limiter_for("active-client")
            assert len(server._buckets) == 1  # only the active client left

            # An idle bucket still owing refill debt survives the sweep.
            debtor = server.limiter_for("debtor")
            assert debtor.try_acquire() and debtor.try_acquire()
            assert not debtor.try_acquire()  # empty: refill debt outstanding
            clock_now[0] = 130.05  # idle "long enough" only by last_seen...
            server._bucket_last_seen["debtor"] = clock_now[0] - 61.0
            server._evict_idle_buckets(clock_now[0])
            assert "debtor" in server._buckets  # ...but not yet refilled
            clock_now[0] = 200.0  # fully refilled now
            server._evict_idle_buckets(clock_now[0])
            assert "debtor" not in server._buckets
        finally:
            gated.gate.set()
            server._close()

    def test_coalesced_submissions_over_http(self, gated):
        with make_server(gated, workers=1) as server:
            client = ServiceClient(server.url)
            first = client.submit(spec_for(0))
            gated.started.acquire(timeout=10)
            n = 4
            dups = [client.submit(spec_for(0)) for _ in range(n)]
            assert all(d["coalesced"] for d in dups)
            gated.gate.set()
            texts = {
                client.wait(d["id"], timeout=30) and
                client.result_text(d["id"])
                for d in [first, *dups]
            }
            assert len(texts) == 1  # every submitter reads the same bytes
            assert gated.calls == 1
            metrics = client.metrics()
            assert f"drbw_service_jobs_coalesced_total {n}" in metrics


class TestMetrics:
    def test_exposition_page(self, gated):
        gated.gate.set()
        with make_server(gated) as server:
            client = ServiceClient(server.url)
            client.run(spec_for(0), timeout=30)
            page = client.metrics()
            assert "# TYPE drbw_service_jobs_done_total counter" in page
            assert "drbw_service_jobs_done_total 1" in page
            assert "drbw_service_jobs_done_now 1" in page
            assert "drbw_service_job_seconds_count 1" in page

    def test_pipeline_telemetry_aggregates(self, model_path):
        """With telemetry on and a real executor, per-job pipeline counters
        fold into a second exposition namespace, and the queue keeps no
        spans when no span log is open."""
        q = ServiceQueue(workers=1, capacity=4, telemetry_enabled=True)
        with ServiceServer(q, port=0) as server:
            client = ServiceClient(server.url)
            client.run({
                "kind": "detect", "benchmark": "NW", "config": "T16-N2",
                "model": model_path,
            }, timeout=120)
            page = client.metrics()
            assert "drbw_pipeline_profiler_samples_observed_total" in page
            # Counters fold in; the job's spans are not kept.
            assert not q.telemetry.tracer.records

    def test_run_reuse_shows_in_metrics(self, monkeypatch):
        """Two profile jobs of one shard spec: the second samples the
        first's run, and the pipeline counter says so."""
        from repro.parallel import shards

        monkeypatch.setattr(shards, "_last_run", None)
        shard = shards.profile_shard(shards.benchmark_workload_spec("NW", "small"), 8, 2)
        q = ServiceQueue(workers=1, capacity=4, telemetry_enabled=True)
        with ServiceServer(q, port=0) as server:
            client = ServiceClient(server.url)
            for seed in (1, 2):
                client.run({"kind": "profile", "spec": shard, "seed": seed}, timeout=120)
            page = client.metrics()
        values = [
            float(line.split()[1]) for line in page.splitlines()
            if line.startswith("drbw_pipeline_profiler_run_reused_total ")
        ]
        assert values == [1.0]


class TestLifecycle:
    def test_graceful_shutdown_finishes_accepted_jobs(self, gated):
        server = make_server(gated, workers=1)
        server.start()
        client = ServiceClient(server.url)
        ids = [client.submit(spec_for(i))["id"] for i in range(3)]
        gated.started.acquire(timeout=10)
        server.request_shutdown()
        assert not client.ready() or True  # readiness flips as drain begins
        gated.gate.set()
        deadline = time.monotonic() + 30
        while server.queue.store.get(ids[-1]).state != "done":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        for job_id in ids:
            assert server.queue.store.get(job_id).state == "done"
        server.stop()

    def test_draining_server_refuses_new_jobs(self, gated):
        server = make_server(gated, workers=1)
        server.start()
        client = ServiceClient(server.url)
        client.submit(spec_for(0))
        gated.started.acquire(timeout=10)
        server.queue._draining = True  # drain begun, worker still busy
        assert not client.ready()
        with pytest.raises(ServiceError, match="HTTP 503"):
            client.submit(spec_for(1))
        server.queue._draining = False
        gated.gate.set()
        server.stop()


class TestByteIdentity:
    """Real pipeline over the wire vs. the CLI — the headline invariant."""

    SPEC = {"kind": "detect", "benchmark": "NW", "config": "T16-N2", "seed": 0}

    def _cli_stdout(self, argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli_main(argv)
        return out.getvalue()

    def test_service_result_bytes_equal_cli_json(self, model_path):
        q = ServiceQueue(workers=1, capacity=4, telemetry_enabled=False)
        with ServiceServer(q, port=0) as server:
            client = ServiceClient(server.url)
            job_id = client.submit({**self.SPEC, "model": model_path})["id"]
            client.wait(job_id, timeout=120)
            over_http = client.result_text(job_id)
        via_cli = self._cli_stdout([
            "detect", "NW", "--config", "T16-N2", "--seed", "0",
            "--model", model_path, "--json",
        ])
        assert over_http == via_cli
        json.loads(over_http)  # and it is valid JSON

    def test_warm_and_fresh_results_are_identical(self, model_path, tmp_path):
        from repro.parallel.cache import ResultCache
        from repro.service import SERVICE_CACHE_SCHEMA

        spec = {**self.SPEC, "model": model_path}
        texts = []
        for _ in range(2):  # second server starts cold but hits the cache
            cache = ResultCache(tmp_path / "c", schema=SERVICE_CACHE_SCHEMA)
            q = ServiceQueue(workers=1, capacity=4, cache=cache,
                             telemetry_enabled=False)
            with ServiceServer(q, port=0) as server:
                client = ServiceClient(server.url)
                job_id = client.submit(spec)["id"]
                client.wait(job_id, timeout=120)
                texts.append(client.result_text(job_id))
                hit = client.status(job_id)["cache_hit"]
            del server
            texts.append(hit)
        first_text, first_hit, second_text, second_hit = texts
        assert not first_hit and second_hit
        assert first_text == second_text
