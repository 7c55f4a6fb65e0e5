"""SLO benchmarks: loadgen against a live service + request-plane cost.

Two claims gate the request-path observability plane (ISSUE 8):

* **The published SLO holds** — a concurrency sweep of real profile
  jobs against a live server produces an SLO report whose histogram
  quantiles sit within one bucket width of the exact client-side order
  statistics, whose saturation knee is found (the sweep drives a
  2-worker queue well past capacity), and whose verdict against the
  published spec is *met*.  Every executed job's trace joins to tagged
  worker spans — the end-to-end propagation contract at benchmark scale.
* **The plane is cheap** — per-request observability cost (trace
  parse/mint + RED counter/histogram updates + access-log record) must
  stay under 5% of the warm service round trip.  Wall-clock A/B cannot
  resolve a few percent on a shared host, so the plane is micro-timed
  where it runs and scaled by the measured HTTP-requests-per-round-trip
  from the access log.

Both land in ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import time

from _util import save_and_print
from repro.jsonl import JsonlLog
from repro.parallel.shards import benchmark_workload_spec, profile_shard
from repro.service import AccessLog, ServiceQueue, ServiceServer
from repro.service.accesslog import read_access_log
from repro.service.server import REQUEST_SECONDS_BUCKETS
from repro.service.trace import mint_trace, parse_trace_header
from repro.slo import (
    build_report,
    concurrency_sweep,
    parse_slo_spec,
    run_closed_loop,
    validate_slo_report,
)
from repro.slo.spec import SLO_SPEC_SCHEMA
from repro.telemetry.metrics import MetricsRegistry

#: The published SLO for the profiling service on a modest shared host.
#: Generous ceilings on purpose: the benchmark asserts the *machinery*
#: (quantile cross-check, knee, verdict, trace join), not that a noisy
#: CI runner is fast.
PUBLISHED_SLO = {
    "schema": SLO_SPEC_SCHEMA,
    "name": "drbw-service-bench",
    "targets": {
        "availability": 0.95,
        "p50_ms": 5000.0,
        "p99_ms": 20000.0,
        "sustained_rps": 1.0,
        "max_rate_limited": 0.05,
    },
}

SWEEP_CONCURRENCY = (1, 2, 4, 8)
SWEEP_DURATION_S = 1.25
WORKERS = 2

OVERHEAD_DURATION_S = 2.5
MICRO_REPS = 2000
MICRO_ROUNDS = 5


def _probe_factory():
    """Distinct NW profile jobs per request index (defeats the cache)."""
    shard = profile_shard(benchmark_workload_spec("NW", "large"), 4, 2)

    def spec_for(k: int) -> dict:
        return {"kind": "profile", "spec": shard, "seed": k}

    return spec_for


def _live_service(tmp_path):
    access = AccessLog(tmp_path / "access.jsonl")
    spans = JsonlLog(tmp_path / "spans.jsonl", resume=True)
    queue = ServiceQueue(
        workers=WORKERS, capacity=64, telemetry_enabled=True,
        access_log=access, span_log=spans,
    )
    server = ServiceServer(queue, access_log=access).start()
    return server, access, spans


def test_slo_loadgen(benchmark, results_dir, tmp_path):
    server, access, spans = _live_service(tmp_path)
    spec_for = _probe_factory()

    def run():
        return concurrency_sweep(
            server.url, spec_for,
            concurrencies=SWEEP_CONCURRENCY, duration_s=SWEEP_DURATION_S,
        )

    try:
        results = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        server.stop()
        access.close()
        spans.close()

    spec = parse_slo_spec(PUBLISHED_SLO)
    report = build_report(results, spec, url=server.url,
                          job={"kind": "profile", "benchmark": "NW"})
    schema_errors = validate_slo_report(report)
    steady = report["steady"]
    cross_checked = [
        (label, entry.get("within_one_bucket"))
        for label, entry in steady["quantiles"].items()
        if entry["exact_ms"] is not None
    ]
    all_within = bool(cross_checked) and all(ok for _, ok in cross_checked)

    # Trace join: every executed job's trace_id must resolve to at least
    # one tagged worker span in the span artifact.
    job_traces = {
        rec["trace_id"]
        for rec in read_access_log(tmp_path / "access.jsonl")
        if rec["kind"] == "job" and rec["state"] == "done"
    }
    span_traces = set()
    for line in (tmp_path / "spans.jsonl").read_text().splitlines():
        span = json.loads(line)
        trace_id = (span.get("attrs") or {}).get("trace_id")
        if trace_id:
            span_traces.add(trace_id)
    unjoined = job_traces - span_traces

    lines = [
        f"loadgen sweep c={list(SWEEP_CONCURRENCY)} x {SWEEP_DURATION_S}s, "
        f"{WORKERS}-worker service, NW profile jobs:",
        *(
            f"  c={r.concurrency}: {r.achieved_rps:7.1f} rps  "
            f"p50 {r.exact_quantile(0.5) * 1e3:7.1f} ms  "
            f"availability {r.availability:.3f}"
            for r in results
        ),
        f"knee: {report['knee']}",
        f"quantile cross-check within one bucket: {all_within} "
        f"({', '.join(label for label, _ in cross_checked)})",
        f"traces joined to spans: {len(job_traces - unjoined)}/"
        f"{len(job_traces)}",
        f"SLO verdict: {'BREACHED' if report['slo']['breached'] else 'met'}",
    ]
    save_and_print(
        results_dir, "slo_loadgen", "\n".join(lines),
        data={
            "sweep_concurrency": list(SWEEP_CONCURRENCY),
            "duration_s_per_level": SWEEP_DURATION_S,
            "workers": WORKERS,
            "steady": steady,
            "knee": report["knee"],
            "knee_detected": report["knee"] is not None,
            "quantiles_within_one_bucket": all_within,
            "job_traces": len(job_traces),
            "unjoined_traces": len(unjoined),
            "slo_breached": report["slo"]["breached"],
            "slo_checks": report["slo"]["checks"],
        },
    )
    assert schema_errors == [], schema_errors
    assert all_within, f"quantile cross-check drifted: {cross_checked}"
    assert report["knee"] is not None, (
        f"sweep to {max(SWEEP_CONCURRENCY)} workers against a {WORKERS}-worker "
        "queue must find the saturation knee"
    )
    assert not unjoined, f"{len(unjoined)} job traces have no tagged spans"
    assert report["slo"]["breached"] is False, report["slo"]["checks"]


def _micro_best(fn, reps: int = MICRO_REPS, rounds: int = MICRO_ROUNDS) -> float:
    """Best-of-``rounds`` mean seconds per call over ``reps`` calls."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for k in range(reps):
            fn(k)
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def test_slo_plane_overhead(benchmark, results_dir, tmp_path):
    server, access, spans = _live_service(tmp_path)
    spec_for = _probe_factory()
    log_path = tmp_path / "access.jsonl"

    def run():
        # Warm-up (cache layers, thread pools) untimed, then the
        # measured window bracketed by access-log record counts.
        run_closed_loop(server.url, spec_for, concurrency=2, duration_s=0.5)
        before = sum(1 for _ in read_access_log(log_path))
        result = run_closed_loop(
            server.url, lambda k: spec_for(10_000 + k),
            concurrency=2, duration_s=OVERHEAD_DURATION_S,
        )
        records = list(read_access_log(log_path))[before:]
        return result, records

    try:
        result, records = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        server.stop()
        access.close()
        spans.close()

    http_records = sum(1 for r in records if r["kind"] == "http")
    job_records = sum(1 for r in records if r["kind"] == "job")
    requests_per_roundtrip = http_records / max(result.ok, 1)
    jobs_per_roundtrip = job_records / max(result.ok, 1)
    median_roundtrip_s = result.exact_quantile(0.5)

    # Micro-time the plane where it runs.  Per HTTP request: trace
    # header parse (or mint), RED counter + latency histogram, one
    # access-log record.  Per job: queue-wait + execution histograms,
    # two gauge updates, one job record.
    registry = MetricsRegistry()
    plane_log = AccessLog(tmp_path / "plane.jsonl")
    header = mint_trace().header_value()

    def http_plane(k: int) -> None:
        trace = parse_trace_header(header) or mint_trace()
        registry.counter("service.http.requests.status.2xx").inc()
        registry.histogram(
            "service.http.request_seconds.status", REQUEST_SECONDS_BUCKETS
        ).observe(0.002)
        plane_log.record(
            "http", method="GET", path="/v1/jobs/x", endpoint="status",
            status=200, duration_s=0.002, trace_id=trace.trace_id,
            span_id=trace.span_id, job_id="job-x", coalesced=False,
            cache_hit=False,
        )

    def job_plane(k: int) -> None:
        registry.histogram("service.queue_wait_seconds").observe(0.001)
        registry.histogram("service.job_seconds").observe(0.02)
        registry.gauge("service.workers_busy").set(1)
        registry.gauge("service.worker_utilization").set(0.5)
        plane_log.record(
            "job", job_id="job-x", endpoint="profile", state="done",
            trace_id=header[:32], queue_wait_s=0.001, exec_s=0.02,
            attempts=1, coalesced=False, cache_hit=False,
        )

    http_plane_s = _micro_best(http_plane)
    job_plane_s = _micro_best(job_plane)
    plane_log.close()

    plane_per_roundtrip_s = (
        http_plane_s * requests_per_roundtrip
        + job_plane_s * jobs_per_roundtrip
    )
    overhead = plane_per_roundtrip_s / median_roundtrip_s

    lines = [
        f"request-plane cost, warm {WORKERS}-worker service "
        f"({result.ok} round trips):",
        f"  median round trip      {median_roundtrip_s * 1e3:9.2f} ms",
        f"  http plane per request {http_plane_s * 1e6:9.2f} us "
        f"x {requests_per_roundtrip:.1f} requests/round-trip",
        f"  job plane per job      {job_plane_s * 1e6:9.2f} us "
        f"x {jobs_per_roundtrip:.2f} jobs/round-trip",
        f"  plane per round trip   {plane_per_roundtrip_s * 1e6:9.2f} us",
        f"overhead: {overhead * 100:.3f}%  (budget: <5%)",
    ]
    save_and_print(
        results_dir, "slo_plane_overhead", "\n".join(lines),
        data={
            "ok_roundtrips": result.ok,
            "median_roundtrip_s": median_roundtrip_s,
            "http_plane_seconds_per_request": http_plane_s,
            "job_plane_seconds_per_job": job_plane_s,
            "requests_per_roundtrip": requests_per_roundtrip,
            "jobs_per_roundtrip": jobs_per_roundtrip,
            "plane_seconds_per_roundtrip": plane_per_roundtrip_s,
            "plane_overhead_fraction": overhead,
        },
    )
    assert result.ok > 0, "overhead run produced no successful round trips"
    # The acceptance bar from the observability issue.
    assert overhead < 0.05
