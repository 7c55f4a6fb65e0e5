"""The HTTP front-end of ``drbw serve``, on the package's app shell.

Endpoints (all JSON unless noted):

* ``POST /v1/jobs``            — submit a job spec; ``202`` with the job's
  status payload, ``400`` for malformed specs, ``429`` +
  ``Retry-After`` when the queue is full or the client is over its
  token-bucket rate, ``503`` while draining;
* ``GET /v1/jobs/<id>``        — job status;
* ``GET /v1/jobs/<id>/result`` — the finished job's result, served as
  the *exact bytes* ``drbw <kind> --json`` would print for the same
  spec (``409`` while the job is still queued/running, ``500`` with the
  error for failed jobs);
* ``GET /healthz``             — liveness (text ``ok``);
* ``GET /readyz``              — readiness: ``200`` while accepting,
  ``503`` once draining;
* ``GET /metrics``             — Prometheus text: service lifecycle
  counters plus the aggregated pipeline telemetry of finished jobs.

Shutdown: :meth:`ServiceServer.request_shutdown` (wired to SIGTERM by
the CLI) flips readiness, lets the queue drain every accepted job, then
stops the listener — an orchestrator doing a rolling restart loses no
work that was ever acknowledged with a 202.
"""

from __future__ import annotations

import logging
import os
import threading
import time

from repro.errors import ServiceError, ServiceSaturatedError
from repro.httpapp import HttpApp, HttpError, Request
from repro.monitor.exposition import CONTENT_TYPE, render_prometheus_multi
from repro.service.accesslog import AccessLog
from repro.service.admission import PRIORITY_HEADER, AdmissionController
from repro.service.metricsagg import (
    merge_registry_dicts,
    read_snapshots,
    write_snapshot,
)
from repro.service.queue import ServiceQueue, TokenBucket, WAIT_SECONDS_BUCKETS
from repro.service.trace import TRACE_HEADER, mint_trace, parse_trace_header

__all__ = ["ServiceServer", "MAX_BODY_BYTES", "REQUEST_SECONDS_BUCKETS"]

logger = logging.getLogger(__name__)

#: Request bodies larger than this are rejected outright (413).
MAX_BODY_BYTES = 1 << 20

#: End-to-end HTTP request latency buckets (seconds).  Most requests are
#: status polls and cache hits in the low milliseconds; the tail is a
#: submit that waited on backpressure.
REQUEST_SECONDS_BUCKETS = WAIT_SECONDS_BUCKETS

#: Idle per-client rate-limit buckets last seen longer ago than this are
#: evicted (once fully refilled) so the map stays bounded at
#: millions-of-distinct-clients scale.
BUCKET_IDLE_TTL_S = 300.0

#: Multi-process mode: how often each worker refreshes its shared-file
#: metrics snapshot, so a scrape on any sibling covers this worker even
#: if this worker never serves a scrape itself.
METRICS_PUBLISH_INTERVAL_S = 1.0


class ServiceServer(HttpApp):
    """The HTTP listener wrapping one :class:`ServiceQueue`.

    ``rate``/``burst`` configure the per-client token bucket
    (``rate=None`` disables rate limiting).  ``start()`` serves on a
    background thread (tests); :meth:`serve_forever` serves on the
    calling thread until :meth:`request_shutdown` (the CLI).
    """

    error = ServiceError
    label = "service"
    max_body_bytes = MAX_BODY_BYTES

    def __init__(
        self,
        queue: ServiceQueue,
        host: str = "127.0.0.1",
        port: int = 0,
        rate: float | None = None,
        burst: float = 10.0,
        access_log: AccessLog | None = None,
        bucket_ttl_s: float = BUCKET_IDLE_TTL_S,
        clock=time.monotonic,
        admission: AdmissionController | None = None,
        metrics_dir: str | os.PathLike | None = None,
        worker_id: str = "w0",
    ) -> None:
        self.queue = queue
        #: Optional priority-class gate, checked after the token buckets.
        self.admission = admission
        #: Multi-process mode: the shared directory where every worker
        #: publishes its metrics snapshot, and this worker's tag in it.
        #: ``None`` keeps the single-process render path byte-for-byte.
        self._metrics_dir = metrics_dir
        self.worker_id = worker_id
        #: Pre-forked workers share the supervisor's port.
        self.reuse_port = metrics_dir is not None
        self._rate = rate
        self._burst = burst
        self._access_log = access_log
        self._clock = clock
        self._bucket_ttl_s = bucket_ttl_s
        self._buckets: dict[str, TokenBucket] = {}
        self._bucket_last_seen: dict[str, float] = {}
        # Sweep no more than a few times per TTL: the sweep is O(clients)
        # and must not run on every request.
        self._bucket_sweep_interval = max(bucket_ttl_s / 4.0, 1e-9)
        self._last_bucket_sweep = clock()
        self._buckets_lock = threading.Lock()
        self._metrics_pub_stop = threading.Event()
        self._metrics_pub_thread: threading.Thread | None = None
        self._shutdown_started = False
        self._shutdown_lock = threading.Lock()
        super().__init__(host, port)

    # -- introspection ----------------------------------------------------------

    @property
    def ready(self) -> bool:
        return not self.queue.draining and not self._closed

    def limiter_for(self, client: str) -> TokenBucket | None:
        if self._rate is None:
            return None
        with self._buckets_lock:
            now = self._clock()
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = self._buckets[client] = TokenBucket(
                    self._rate, self._burst, clock=self._clock
                )
            self._bucket_last_seen[client] = now
            if now - self._last_bucket_sweep >= self._bucket_sweep_interval:
                self._evict_idle_buckets(now)
            self.queue.metrics.gauge("service.rate_limiter_buckets").set(
                len(self._buckets)
            )
            return bucket

    def _evict_idle_buckets(self, now: float) -> None:
        """Drop buckets idle past the TTL *and* fully refilled.

        Must run under ``_buckets_lock``.  The full-bucket condition means
        eviction never forgets refill debt: a client evicted and re-seen
        starts from exactly the state its bucket would have reached anyway.
        """
        self._last_bucket_sweep = now
        idle = [
            client
            for client, seen in self._bucket_last_seen.items()
            if now - seen >= self._bucket_ttl_s and self._buckets[client].is_full
        ]
        for client in idle:
            del self._buckets[client]
            del self._bucket_last_seen[client]
        if idle:
            self.queue.metrics.counter("service.rate_limiter_evictions").inc(
                len(idle)
            )

    # -- routes -----------------------------------------------------------------

    @staticmethod
    def _endpoint(path: str) -> str:
        if path in ("/healthz", "/readyz", "/metrics"):
            return path[1:]
        if path == "/v1/jobs":
            return "submit"
        if path.startswith("/v1/jobs/"):
            return "result" if path.endswith("/result") else "status"
        return "other"

    def handle(self, req: Request, method: str, path: str) -> None:
        """Run one request with trace extraction, RED metrics, access log.

        The trace context comes from the ``X-Drbw-Trace`` header when the
        client sent a well-formed one, else it is minted here — every
        request gets a trace identity, and every response echoes it back
        so headerless clients can still correlate.

        RED counters are per endpoint and status class
        (``service.http.requests.<endpoint>.<class>``); latency lands in a
        per-endpoint fixed-bucket histogram.  Both live on the queue's
        always-on lifecycle registry, so ``/metrics`` exposes them whether
        or not pipeline telemetry is enabled.
        """
        t0 = time.perf_counter()
        req.job = None
        trace = req.trace = (
            parse_trace_header(req.headers.get(TRACE_HEADER)) or mint_trace()
        )
        req.reply_headers = {TRACE_HEADER: trace.header_value()}
        try:
            super().handle(req, method, path)
        finally:
            duration_s = time.perf_counter() - t0
            endpoint = self._endpoint(path)
            # The shell answers a crashed route with a 500; a request that
            # never got that far is accounted as one too.
            status = req.status if req.status is not None else 500
            metrics = self.queue.metrics
            metrics.counter(
                f"service.http.requests.{endpoint}.{status // 100}xx"
            ).inc()
            metrics.histogram(
                f"service.http.request_seconds.{endpoint}", REQUEST_SECONDS_BUCKETS
            ).observe(duration_s)
            if self._access_log is not None:
                job = req.job
                self._access_log.record(
                    "http",
                    method=method,
                    path=path,
                    endpoint=endpoint,
                    status=status,
                    duration_s=round(duration_s, 6),
                    trace_id=trace.trace_id,
                    span_id=trace.span_id,
                    job_id=None if job is None else job.id,
                    coalesced=None if job is None else job.coalesced,
                    cache_hit=None if job is None else job.cache_hit,
                )

    def route(self, req: Request, method: str, path: str) -> None:
        if method == "POST" and path == "/v1/jobs":
            self._submit(req)
        elif method != "GET":
            super().route(req, method, path)
        elif path == "/healthz":
            req.send(200, b"ok\n", "text/plain; charset=utf-8")
        elif path == "/readyz":
            if not self.ready:
                raise HttpError(503, "draining")
            # "degraded" (cache circuit open, recent watchdog incidents)
            # still answers 200 — the instance serves traffic — but the
            # state/reasons let operators and probes tell a limping
            # instance from a healthy one.
            health = self.queue.health()
            req.send_json(200, {
                "ready": True,
                "state": health["state"],
                "reasons": health["reasons"],
                **self.queue.store.counts(),
            })
        elif path == "/metrics":
            req.send(200, self.render_metrics().encode("utf-8"), CONTENT_TYPE)
        elif path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/result"):
                self._get_result(req, rest[: -len("/result")])
            else:
                self._get_status(req, rest)
        else:
            super().route(req, method, path)

    def _get_status(self, req: Request, job_id: str) -> None:
        try:
            job = self.queue.store.get(job_id)
        except ServiceError as exc:
            # Multi-process mode: the job may live in a sibling worker.
            record = self.queue.store.lookup_record(job_id)
            if record is None:
                raise HttpError(404, str(exc)) from None
            req.send_json(200, record["payload"])
            return
        req.job = job
        req.send_json(200, job.status_payload())

    def _get_result(self, req: Request, job_id: str) -> None:
        try:
            job = self.queue.store.get(job_id)
        except ServiceError as exc:
            # A sibling worker's record carries the canonical bytes the
            # accepting worker stored, so the response is byte-identical
            # wherever the poll lands.
            record = self.queue.store.lookup_record(job_id)
            if record is None:
                raise HttpError(404, str(exc)) from None
            payload = record["payload"]
            self._send_result(req, payload.get("state"), payload.get("error"),
                              record.get("result_text"))
            return
        req.job = job
        self._send_result(req, job.state, job.error, job.result_text)

    @staticmethod
    def _send_result(req: Request, state: str | None, error: str | None,
                     result_text: str | None) -> None:
        if state == "failed":
            raise HttpError(500, error or "job failed")
        if state != "done":
            req.send_json(409, {"error": "job not finished", "state": state},
                          {"Retry-After": "1"})
            return
        # The result bytes are exactly what `drbw <kind> --json` prints:
        # canonical JSON plus the trailing newline print() appends.
        req.send(200, (result_text or "").encode("utf-8") + b"\n",
                 "application/json")

    def _submit(self, req: Request) -> None:
        client = req.client_address[0]
        limiter = self.limiter_for(client)
        if limiter is not None and not limiter.try_acquire():
            retry = max(limiter.retry_after, 0.001)
            self.queue.metrics.counter("service.rate_limited").inc()
            req.fail(429, f"rate limit exceeded for {client}",
                     {"Retry-After": f"{retry:.3f}"})
            return
        if self.admission is not None:
            try:
                decision = self.admission.decide(
                    req.headers.get(PRIORITY_HEADER),
                    self.queue.depth,
                    self.queue.capacity,
                )
            except ServiceError as exc:
                raise HttpError(400, str(exc)) from None
            if not decision.admitted:
                self.queue.metrics.counter(
                    f"service.admission_rejected.{decision.priority}"
                ).inc()
                req.fail(429, decision.reason or "admission rejected",
                         {"Retry-After": f"{self.admission.retry_after_s:.3f}"})
                return
        spec = req.read_json()
        try:
            job = self.queue.submit(spec, trace=req.trace)
        except ServiceSaturatedError as exc:
            req.fail(429, str(exc), {"Retry-After": f"{exc.retry_after:.3f}"})
            return
        except ServiceError as exc:
            raise HttpError(503 if self.queue.draining else 400, str(exc)) from None
        req.job = job
        req.send_json(202, job.status_payload())

    def _refresh_gauges(self) -> None:
        """Point-in-time occupancy gauges, set just before any export."""
        counts = self.queue.store.counts()
        for state, n in counts.items():
            self.queue.metrics.gauge(f"service.jobs_{state}_now").set(n)
        self.queue.metrics.gauge("service.queue_depth").set(self.queue.depth)
        with self._buckets_lock:
            self.queue.metrics.gauge("service.rate_limiter_buckets").set(
                len(self._buckets)
            )

    def _registries(self) -> list[tuple[str, object]]:
        registries: list[tuple[str, object]] = [("drbw", self.queue.metrics)]
        if self.queue.telemetry.enabled:
            registries.append(("drbw_pipeline", self.queue.telemetry.metrics))
        return registries

    def _publish_snapshot(self) -> None:
        """Refresh this worker's shared-file snapshot (multi-process mode)."""
        self._refresh_gauges()
        write_snapshot(self._metrics_dir, self.worker_id, dict(self._registries()))

    def _publish_metrics_loop(self) -> None:
        while True:
            try:
                self._publish_snapshot()
            except Exception:  # noqa: BLE001 - export must not kill the worker
                logger.exception("metrics snapshot publish failed")
            if self._metrics_pub_stop.wait(METRICS_PUBLISH_INTERVAL_S):
                return

    def _start_metrics_publisher(self) -> None:
        if self._metrics_dir is None:
            return
        self._metrics_pub_thread = threading.Thread(
            target=self._publish_metrics_loop,
            name="drbw-metrics-publisher",
            daemon=True,
        )
        self._metrics_pub_thread.start()

    def render_metrics(self) -> str:
        """The ``/metrics`` page: service counters + pipeline aggregate.

        Single-process mode renders this worker's registries directly.
        In multi-process mode (``metrics_dir`` set) the scrape covers the
        fleet: refresh our own snapshot file, merge every worker's
        snapshot, and render the sums — so whichever worker the shared
        listener hands the scrape to, the page is the whole service.
        """
        self._refresh_gauges()
        registries = self._registries()
        if self._metrics_dir is None:
            return render_prometheus_multi(registries)
        write_snapshot(self._metrics_dir, self.worker_id, dict(registries))
        snapshots = read_snapshots(self._metrics_dir)
        namespaces = sorted({
            name for doc in snapshots for name in doc["registries"]
        })
        merged = [
            (
                ns,
                merge_registry_dicts([
                    doc["registries"][ns]
                    for doc in snapshots
                    if ns in doc["registries"]
                ]),
            )
            for ns in namespaces
        ]
        for ns, registry in merged:
            if ns == "drbw":
                registry.gauge("service.metrics_workers").set(len(snapshots))
        return render_prometheus_multi(merged)

    # -- lifecycle --------------------------------------------------------------

    def on_start(self) -> None:
        self.queue.start()
        self._start_metrics_publisher()

    def request_shutdown(self) -> None:
        """Begin a graceful drain: finish accepted jobs, then stop.

        Safe to call from a signal handler; idempotent.  The drain runs
        on a helper thread because ``queue.drain()`` blocks and a signal
        handler must not.
        """
        with self._shutdown_lock:
            if self._shutdown_started:
                return
            self._shutdown_started = True
        threading.Thread(
            target=self._drain_and_stop, name="drbw-service-drain", daemon=True
        ).start()

    def _drain_and_stop(self) -> None:
        try:
            self.queue.drain()
        finally:
            self._server.shutdown()

    def stop(self) -> None:
        """Immediate stop for tests: drain the queue, close the listener."""
        if self._thread is not None:
            self.queue.drain()
        super().stop()

    def on_close(self) -> None:
        self._metrics_pub_stop.set()
        if self._metrics_pub_thread is not None:
            self._metrics_pub_thread.join(timeout=5.0)
            self._metrics_pub_thread = None
            # One last snapshot so the drained totals survive for
            # scrapes served by siblings after this worker exits.
            self._publish_snapshot()
