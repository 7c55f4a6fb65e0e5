"""The request-path observability plane, asserted over real HTTP.

One server + fake executor per test class; the assertions follow a
request end to end: trace header in → same trace echoed back → access-log
``http`` record → job record → tagged worker spans.  This is the local
version of the CI ``slo-smoke`` join check.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro import telemetry
from repro.jsonl import JsonlLog
from repro.service import (
    AccessLog,
    ServiceClient,
    ServiceQueue,
    ServiceServer,
    TRACE_HEADER,
    mint_trace,
    read_access_log,
    validate_access_record,
)


def spec_for(seed: int) -> dict:
    return {"kind": "detect", "benchmark": "NW", "seed": seed}


def span_executor(spec: dict) -> dict:
    """Fake executor that still emits one telemetry span, like the real one."""
    with telemetry.get_telemetry().span("service.execute.fake"):
        return {"echo": spec["seed"]}


@pytest.fixture
def observed(tmp_path):
    """A serving stack with access log + span log wired end to end."""
    access = AccessLog(tmp_path / "access.jsonl")
    spans = JsonlLog(tmp_path / "spans.jsonl", resume=True)
    queue = ServiceQueue(
        executor=span_executor, workers=2, capacity=8,
        telemetry_enabled=True, access_log=access, span_log=spans,
    )
    server = ServiceServer(queue, port=0, access_log=access)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, tmp_path
    finally:
        server.request_shutdown()
        thread.join(timeout=30)
        access.close()
        spans.close()


def get_raw(url: str, headers: dict | None = None):
    req = urllib.request.Request(url, headers=headers or {})
    return urllib.request.urlopen(req, timeout=5)


class TestTracePropagation:
    def test_client_trace_echoed_back(self, observed):
        server, _ = observed
        trace = mint_trace()
        with get_raw(server.url + "/healthz",
                     {TRACE_HEADER: trace.header_value()}) as resp:
            assert resp.headers[TRACE_HEADER] == trace.header_value()

    def test_server_mints_when_header_absent(self, observed):
        server, _ = observed
        with get_raw(server.url + "/healthz") as resp:
            value = resp.headers[TRACE_HEADER]
        trace_id, span_id = value.split("-")
        assert len(trace_id) == 32 and len(span_id) == 16

    def test_server_mints_on_malformed_header(self, observed):
        server, _ = observed
        with get_raw(server.url + "/healthz",
                     {TRACE_HEADER: "not-a-trace"}) as resp:
            assert resp.headers[TRACE_HEADER] != "not-a-trace"

    def test_submission_trace_becomes_job_trace(self, observed):
        server, tmp_path = observed
        client = ServiceClient(server.url)
        trace = mint_trace()
        job = client.submit(spec_for(1), trace=trace)
        client.wait(job["id"], timeout=30)
        status = client.status(job["id"])
        assert status["trace_id"] == trace.trace_id

    def test_client_polls_ride_submission_trace(self, observed):
        server, tmp_path = observed
        client = ServiceClient(server.url)
        job = client.submit(spec_for(2))
        client.wait(job["id"], timeout=30)
        server.request_shutdown()
        recs = list(read_access_log(tmp_path / "access.jsonl"))
        status_recs = [r for r in recs if r["kind"] == "http"
                       and r["endpoint"] == "status"]
        submit_recs = [r for r in recs if r["kind"] == "http"
                       and r["endpoint"] == "submit"]
        assert submit_recs and status_recs
        assert {r["trace_id"] for r in status_recs} == \
            {submit_recs[0]["trace_id"]}


class TestAccessLogRecords:
    def test_every_record_valid_and_traced(self, observed):
        server, tmp_path = observed
        client = ServiceClient(server.url)
        client.run(spec_for(3), timeout=30)
        client.metrics()
        server.request_shutdown()
        recs = list(read_access_log(tmp_path / "access.jsonl"))
        assert recs
        for rec in recs:
            assert validate_access_record(rec) == []
            assert rec["trace_id"]

    def test_job_record_carries_wait_and_exec(self, observed):
        server, tmp_path = observed
        client = ServiceClient(server.url)
        client.run(spec_for(4), timeout=30)
        server.request_shutdown()
        recs = list(read_access_log(tmp_path / "access.jsonl"))
        [job_rec] = [r for r in recs if r["kind"] == "job"]
        assert job_rec["state"] == "done"
        assert job_rec["queue_wait_s"] >= 0.0
        assert job_rec["exec_s"] >= 0.0
        assert job_rec["endpoint"] == "detect"

    def test_coalesced_followers_keep_own_trace_plus_primary(self, observed):
        server, tmp_path = observed
        queue = server.queue
        # Submit directly with a gate: stall the worker pool so a second
        # identical submission coalesces behind the first.
        release = threading.Event()
        started = threading.Semaphore(0)

        def gated(spec):
            started.release()
            assert release.wait(timeout=30)
            return {"echo": spec["seed"]}

        queue._executor = gated
        t1, t2 = mint_trace(), mint_trace()
        primary = queue.submit(spec_for(9), trace=t1)
        assert started.acquire(timeout=30)
        follower = queue.submit(spec_for(9), trace=t2)
        release.set()
        # The job records land when the worker reaches the terminal-state
        # write, not when release fires — wait for it, or a loaded machine
        # reads the log before the writer is scheduled.
        deadline = time.monotonic() + 30
        while follower.state != "done" and time.monotonic() < deadline:
            time.sleep(0.01)
        assert follower.state == "done"
        server.request_shutdown()
        recs = list(read_access_log(tmp_path / "access.jsonl"))
        by_id = {r["job_id"]: r for r in recs if r["kind"] == "job"}
        assert by_id[primary.id]["trace_id"] == t1.trace_id
        f = by_id[follower.id]
        assert f["trace_id"] == t2.trace_id
        assert f["coalesced"] is True
        assert f["primary_trace_id"] == t1.trace_id


class TestSpanLogJoin:
    def test_executed_job_trace_resolves_to_tagged_spans(self, observed):
        server, tmp_path = observed
        client = ServiceClient(server.url)
        trace = mint_trace()
        job = client.submit(spec_for(5), trace=trace)
        client.wait(job["id"], timeout=30)
        server.request_shutdown()
        spans = [json.loads(line)
                 for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert spans, "executor emitted a span; the span log must have it"
        mine = [s for s in spans if s["attrs"].get("trace_id") == trace.trace_id]
        assert mine
        assert all(s["attrs"]["job_id"] == job["id"] for s in mine)
        assert {s["name"] for s in mine} == {"service.execute.fake"}


class TestRedMetrics:
    def test_request_counters_and_histograms_exposed(self, observed):
        server, _ = observed
        client = ServiceClient(server.url)
        client.run(spec_for(6), timeout=30)
        text = client.metrics()
        assert "drbw_service_http_requests_submit_2xx_total" in text
        assert "drbw_service_http_request_seconds_status_bucket" in text
        assert "drbw_service_queue_wait_seconds_bucket" in text
        assert "drbw_service_workers_busy" in text
        assert "drbw_service_worker_utilization" in text

    def test_status_classes_split(self, observed):
        server, _ = observed
        client = ServiceClient(server.url)
        # A 404: status for a job that doesn't exist.
        import urllib.error
        try:
            get_raw(server.url + "/v1/jobs/nope")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        text = client.metrics()
        assert "drbw_service_http_requests_status_4xx_total" in text

    def test_queue_metrics_live_regardless_of_telemetry_flag(self, tmp_path):
        queue = ServiceQueue(executor=span_executor, workers=1, capacity=4,
                             telemetry_enabled=False)
        server = ServiceServer(queue, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url)
            client.run(spec_for(7), timeout=30)
            text = client.metrics()
            assert "drbw_service_http_requests_submit_2xx_total" in text
        finally:
            server.request_shutdown()
            thread.join(timeout=30)
