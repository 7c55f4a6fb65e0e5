"""The bounded job queue, its worker pool, and the token-bucket limiter.

:class:`ServiceQueue` is the service's engine room.  ``submit`` decides,
atomically under one lock, which of three ways a spec goes:

1. **follow** — an identical job is already in flight (queued or
   running): attach to its flight as a follower, taking no queue slot
   and no worker thread, and finish with its exact result bytes;
2. **warm hit** — the result cache already holds this key's canonical
   payload: the job is born ``done`` with those bytes, no execution;
3. **enqueue** — become the key's primary and take a slot in the bounded
   queue, or fail with :class:`~repro.errors.ServiceSaturatedError`
   (HTTP 429) when full.

Each in-flight key has one flight record (primary, followers, running
attempt) in a table guarded by the queue lock.  Every primary executes
through ``cache.single_flight(key, compute)`` at every worker count, so
a key runs once across all processes sharing the cache directory; with
no cache configured the queue holds a disabled
:class:`~repro.parallel.cache.ResultCache`, which computes at once.

Worker threads execute jobs through :func:`~repro.service.jobspec
.execute_job` (injectable for tests), each under its own telemetry
session; finished jobs fold their counters into the service aggregate
the ``/metrics`` endpoint exposes, and write their trace-tagged spans to
the ``--spans`` log when one is open (the queue keeps no spans).  Because every counter bump
happens under the queue lock together with the state change it
describes, metrics are exact, not eventually-consistent — the
saturation tests assert equalities, not inequalities.

With ``job_timeout_s`` set, a **watchdog thread** patrols running jobs.
A job past its deadline is *abandoned*: its delivery is accounted for
(so drain cannot hang on it), the stuck worker thread is retired and a
replacement spawned, and the job is either requeued (while attempts
remain under ``job_max_attempts``) or failed along with its coalesced
followers.  A requeued job's claim is released, so its retry does not
wait on its own stuck attempt.  If the stuck executor ever does return,
its result is discarded — abandoning takes the flight away from the
stuck thread, so a late result cannot overwrite the watchdog's verdict.
(Its late cache publish and claim release cost at most a duplicate
execution: results are deterministic.)  The watchdog also respawns
worker threads that died outright.  Each incident is timestamped;
:meth:`ServiceQueue.health` reports ``degraded`` (distinct from unready)
while incidents are recent or the result cache's circuit breaker is
open.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import queue as _stdqueue
import threading
import time
from typing import Callable

from repro import telemetry
from repro.errors import ReproError, ServiceError, ServiceSaturatedError
from repro.jsonl import JsonlLog
from repro.parallel.cache import ResultCache
from repro.parallel.seeding import canonical_json
from repro.service.accesslog import AccessLog
from repro.service.jobspec import execute_job, job_key, normalize_job
from repro.service.jobstore import Job, JobStore
from repro.service.trace import TraceContext, mint_trace

__all__ = [
    "ServiceQueue",
    "TokenBucket",
    "SERVICE_CACHE_SCHEMA",
    "JOB_SECONDS_BUCKETS",
    "WAIT_SECONDS_BUCKETS",
]

logger = logging.getLogger(__name__)

#: Envelope schema for service job results in the shared result cache —
#: disjoint from the campaign's shard schema by construction.
SERVICE_CACHE_SCHEMA = "drbw-service-job"

#: Job wall-time histogram buckets (seconds).
JOB_SECONDS_BUCKETS = (0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0)

#: Queue-wait histogram buckets (seconds) — waits are usually far below
#: execution times, so the buckets start in the millisecond range.
WAIT_SECONDS_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)

#: Queue sentinel telling a worker thread to exit.
_STOP = object()


@dataclasses.dataclass
class _Flight:
    """One key in flight: its primary, followers, and running attempt
    (``thread`` and ``deadline`` are ``None`` while the primary is queued)."""

    primary: Job
    followers: list[Job] = dataclasses.field(default_factory=list)
    thread: threading.Thread | None = None
    deadline: float | None = None


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``clock`` is injectable so rate-limit tests are deterministic
    instead of sleep-based.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0 or burst < 1:
            raise ServiceError(
                f"rate must be > 0 and burst >= 1, got rate={rate}, burst={burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        """Take one token if available."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    @property
    def retry_after(self) -> float:
        """Seconds until one token will be available (0 if one already is)."""
        with self._lock:
            if self._tokens >= 1.0:
                return 0.0
            return (1.0 - self._tokens) / self.rate

    @property
    def is_full(self) -> bool:
        """True once the bucket has refilled to burst capacity.

        A full bucket carries no refill debt, so forgetting it loses no
        state — the eviction criterion for idle per-client buckets.
        """
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now
            return self._tokens >= self.burst


class ServiceQueue:
    """Bounded queue + worker pool executing job specs."""

    def __init__(
        self,
        workers: int = 2,
        capacity: int = 16,
        cache: ResultCache | None = None,
        executor: Callable[[dict], dict] = execute_job,
        telemetry_enabled: bool = True,
        retry_after_s: float = 1.0,
        job_timeout_s: float | None = None,
        job_max_attempts: int = 1,
        watchdog_interval_s: float = 0.25,
        degraded_window_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        access_log: AccessLog | None = None,
        span_log: JsonlLog | None = None,
        store: JobStore | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {capacity}")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ServiceError(f"job_timeout_s must be > 0, got {job_timeout_s}")
        if job_max_attempts < 1:
            raise ServiceError(f"job_max_attempts must be >= 1, got {job_max_attempts}")
        # Injectable so multi-process workers can run a store with a
        # fleet-unique id prefix and a shared record directory.
        self.store = store if store is not None else JobStore()
        self.cache = cache if cache is not None else ResultCache(enabled=False)
        self.capacity = capacity
        self.retry_after_s = retry_after_s
        self.job_timeout_s = job_timeout_s
        self.job_max_attempts = job_max_attempts
        self.watchdog_interval_s = watchdog_interval_s
        self.degraded_window_s = degraded_window_s
        self.clock = clock
        self._executor = executor
        self._n_workers = workers
        self._q: _stdqueue.Queue = _stdqueue.Queue(maxsize=capacity)
        self._lock = threading.Lock()
        #: job key -> the flight of its one in-flight primary.
        self._flights: dict[str, _Flight] = {}
        self._threads: list[threading.Thread] = []
        self._draining = False
        self._stopping = False
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()
        #: Monotonic timestamps of recent watchdog incidents (degraded signal).
        self._incidents: list[float] = []
        self._worker_serial = 0
        #: Workers currently executing a job (worker-utilization gauge).
        self._busy = 0
        #: Structured JSONL sinks for the request-path observability
        #: plane: one ``job`` record per terminal job, one tagged span
        #: dict per worker span.  Both optional and off by default.
        self._access_log = access_log
        self._span_log = span_log
        #: Service lifecycle counters — always live, whatever the
        #: telemetry setting, because ``/metrics`` and the CI smoke test
        #: scrape them unconditionally.
        self.metrics = telemetry.MetricsRegistry()
        #: Pipeline-telemetry aggregate: per-job counters fold in here.
        self.telemetry = telemetry.Telemetry(enabled=telemetry_enabled)

    # -- lifecycle --------------------------------------------------------------

    def _spawn_worker_locked(self) -> threading.Thread:
        self._worker_serial += 1
        t = threading.Thread(
            target=self._work,
            name=f"drbw-service-worker-{self._worker_serial}",
            daemon=True,
        )
        t.start()
        self._threads.append(t)
        return t

    def start(self) -> ServiceQueue:
        if self._threads:
            raise ServiceError("service queue already started")
        with self._lock:
            for _ in range(self._n_workers):
                self._spawn_worker_locked()
        if self.job_timeout_s is not None:
            self._watchdog_stop.clear()
            self._watchdog = threading.Thread(
                target=self._watch, name="drbw-service-watchdog", daemon=True
            )
            self._watchdog.start()
        return self

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def depth(self) -> int:
        """Jobs waiting in the queue (excludes running jobs and followers)."""
        return self._q.qsize()

    def drain(self) -> None:
        """Stop accepting, finish everything queued and running, stop workers.

        The graceful-shutdown path: after this returns, every accepted
        job has reached a terminal state and the worker threads are gone.
        (Abandoned deliveries were already accounted by the watchdog, so
        a hung job cannot wedge the drain.)
        """
        with self._lock:
            self._draining = True
        self._q.join()
        self.stop()

    def stop(self) -> None:
        """Stop worker threads (does not wait for queued work — see drain)."""
        # Halt the watchdog first so it cannot respawn workers mid-stop.
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=10.0)
            self._watchdog = None
        with self._lock:
            self._stopping = True
            threads = list(self._threads)
        if not threads:
            return
        for _ in threads:
            self._q.put(_STOP)
        for t in threads:
            t.join(timeout=30.0)
        with self._lock:
            self._threads = []

    # -- watchdog ---------------------------------------------------------------

    def _watch(self) -> None:
        while not self._watchdog_stop.wait(self.watchdog_interval_s):
            try:
                self._watchdog_pass()
            except Exception:  # noqa: BLE001 - the watchdog must outlive bugs
                logger.exception("service watchdog pass failed")

    def _watchdog_pass(self) -> None:
        now = self.clock()
        with self._lock:
            if self._stopping:
                return
            self._incidents = [
                t for t in self._incidents if now - t <= self.degraded_window_s
            ]
            expired = [
                f for f in self._flights.values()
                if f.deadline is not None and now >= f.deadline
            ]
            for flight in expired:
                self._abandon_locked(flight)
            # Belt and braces: a worker thread that died outright (a bug
            # this layer cannot rule out) gets replaced so capacity never
            # silently decays.
            for t in list(self._threads):
                if not t.is_alive():
                    self._threads.remove(t)
                    self._spawn_worker_locked()
                    self._incidents.append(now)
                    self.metrics.counter("service.workers_restarted").inc()
                    logger.warning("service worker %s died; restarted", t.name)

    def _abandon_locked(self, flight: _Flight) -> None:
        """Take a hung job away from its stuck worker (lock held).

        The stuck thread keeps running its executor call — Python cannot
        preempt it — but from here on it is a zombie: its delivery is
        accounted, its thread retired from the pool, and its eventual
        result (if any) discarded, since it no longer owns the flight.
        """
        job, thread = flight.primary, flight.thread
        flight.thread, flight.deadline = None, None
        # Account the delivery the stuck worker will never task_done.
        self._q.task_done()
        self._incidents.append(self.clock())
        self.metrics.counter("service.jobs_timed_out").inc()
        # Retire the wedged thread and restore capacity.
        if thread in self._threads:
            self._threads.remove(thread)
            self._spawn_worker_locked()
            self.metrics.counter("service.workers_restarted").inc()
        timeout = self.job_timeout_s
        if (
            job.attempts < self.job_max_attempts
            and not self._draining
            and not self._stopping
        ):
            try:
                self._q.put_nowait(job)
            except _stdqueue.Full:
                pass  # no room to retry: fall through to failure
            else:
                job.state = "queued"
                # The zombie's claim carries our live pid, so nothing would
                # steal it: the retry would wait out the claim timeout.
                self.cache.release_claim(job.key)
                self.metrics.counter("service.jobs_requeued").inc()
                logger.warning(
                    "job %s exceeded its %ss deadline; requeued (attempt %d/%d)",
                    job.id, timeout, job.attempts, self.job_max_attempts,
                )
                return
        followers = self._flights.pop(job.key).followers
        now = time.monotonic()
        error = (
            f"DeadlineExceededError: job exceeded its {timeout}s deadline "
            f"after {job.attempts} attempt(s)"
        )
        for j in (job, *followers):
            self._finish_locked(j, state="failed", error=error, finished_s=now)
        self.metrics.counter("service.jobs_failed").inc(1 + len(followers))
        logger.warning("job %s failed by watchdog: %s", job.id, error)

    def health(self) -> dict:
        """Readiness detail for ``/readyz``: ``ready`` or ``degraded``.

        Degraded means "serving, but something recently went wrong":
        the cache circuit is open, or watchdog incidents (timeouts,
        worker restarts) happened within ``degraded_window_s``.  Distinct
        from *unready* (draining/stopped), which fails the probe.
        """
        reasons: list[str] = []
        if self.cache.degraded:
            reasons.append("cache circuit open")
        now = self.clock()
        with self._lock:
            recent = [t for t in self._incidents if now - t <= self.degraded_window_s]
        if recent:
            reasons.append(
                f"{len(recent)} watchdog incident(s) in the last "
                f"{self.degraded_window_s:g}s"
            )
        return {"state": "degraded" if reasons else "ready", "reasons": reasons}

    # -- request-path observability ----------------------------------------------

    def _finish_locked(self, job: Job, state: str, **fields) -> None:
        """Move ``job`` to terminal ``state`` with ``fields``; log it.

        Status handlers read the job without the queue lock, so the shared
        record goes out *before* the in-memory job turns terminal (once a
        poll says ``done``, every sibling serves the result) and ``state``
        is set last (a reader that sees it also sees the result or error).
        """
        self.store.publish(dataclasses.replace(job, state=state, **fields))
        for name, value in fields.items():
            setattr(job, name, value)
        job.state = state
        if self._access_log is None:
            return
        wait = job.queue_wait_s()
        exec_s = job.exec_s()
        self._access_log.record(
            "job",
            job_id=job.id,
            endpoint=job.spec.get("kind"),
            state=job.state,
            trace_id=job.trace_id,
            primary_trace_id=job.primary_trace_id,
            coalesced=job.coalesced,
            cache_hit=job.cache_hit,
            queue_wait_s=None if wait is None else round(wait, 6),
            exec_s=None if exec_s is None else round(exec_s, 6),
            attempts=job.attempts or None,
            error=job.error,
        )

    def _adjust_busy_locked(self, delta: int) -> None:
        """Track executing workers; exported as busy + utilization gauges."""
        self._busy += delta
        self.metrics.gauge("service.workers_busy").set(self._busy)
        self.metrics.gauge("service.worker_utilization").set(
            self._busy / self._n_workers
        )

    # -- submission -------------------------------------------------------------

    def submit(self, spec: dict, trace: TraceContext | None = None) -> Job:
        """Accept one job spec; returns its (possibly already done) job.

        ``trace`` is the submitting request's trace context (from the
        ``X-Drbw-Trace`` header, or minted by the server); library callers
        that pass none get a fresh one, so every job has a trace identity.

        Raises :class:`ServiceError` for malformed specs and
        :class:`ServiceSaturatedError` when the queue is full.
        """
        normalized = normalize_job(spec)
        key = job_key(normalized)
        if trace is None:
            trace = mint_trace()
        with self._lock:
            if self._draining:
                raise ServiceError("service is draining; not accepting jobs")
            self.metrics.counter("service.jobs_submitted").inc()

            flight = self._flights.get(key)
            if flight is not None:
                job = self.store.create(normalized, key)
                job.trace_id = trace.trace_id
                # Its own trace, plus the trace of the execution that
                # will produce its result.
                job.coalesced = True
                job.primary_trace_id = flight.primary.trace_id
                flight.followers.append(job)
                self.metrics.counter("service.jobs_coalesced").inc()
                return job

            cached = self.cache.get(key)
            if cached is not None:
                job = self.store.create(normalized, key)
                job.trace_id = trace.trace_id
                self._finish_locked(
                    job, state="done", cache_hit=True,
                    result_text=canonical_json(cached),
                    finished_s=time.monotonic(),
                )
                self.metrics.counter("service.cache_hits").inc()
                self.metrics.counter("service.jobs_done").inc()
                return job

            job = self.store.create(normalized, key)
            job.trace_id = trace.trace_id
            try:
                self._q.put_nowait(job)
            except _stdqueue.Full:
                self._finish_locked(
                    job, state="failed", error="rejected: queue full",
                    finished_s=time.monotonic(),
                )
                self.metrics.counter("service.jobs_rejected").inc()
                raise ServiceSaturatedError(
                    f"job queue full ({self.capacity} deep); retry later",
                    retry_after=self.retry_after_s,
                ) from None
            self._flights[key] = _Flight(job)
            self.metrics.gauge("service.queue_depth").set(self._q.qsize())
            return job

    # -- execution --------------------------------------------------------------

    def _work(self) -> None:
        me = threading.current_thread()
        while True:
            item = self._q.get()
            if item is _STOP:
                self._q.task_done()
                return
            abandoned = False
            try:
                abandoned = self._run_one(item)
            finally:
                if not abandoned:
                    self._q.task_done()
                # An abandoned delivery was task_done'd by the watchdog
                # when it retired this thread; doing it again here would
                # corrupt the queue's unfinished-task accounting.
            with self._lock:
                retired = me not in self._threads
            if retired:
                # The watchdog replaced this thread while it was stuck;
                # its successor owns the queue now.
                return

    def _run_one(self, job: Job) -> bool:
        """Execute one job; returns True when the watchdog abandoned it."""
        me = threading.current_thread()
        with self._lock:
            job.state = "running"
            job.started_s = time.monotonic()
            job.attempts += 1
            flight = self._flights[job.key]
            flight.thread = me
            flight.deadline = (
                None if self.job_timeout_s is None
                else self.clock() + self.job_timeout_s
            )
            self.metrics.gauge("service.queue_depth").set(self._q.qsize())
            self.metrics.histogram(
                "service.queue_wait_seconds", WAIT_SECONDS_BUCKETS
            ).observe(job.queue_wait_s() or 0.0)
            self._adjust_busy_locked(+1)

        tel = telemetry.Telemetry(enabled=self.telemetry.enabled)

        def compute() -> dict:
            with telemetry.session(tel):
                result = self._executor(job.spec)
            # Publish only what canonically encodes (NaN would not).
            return json.loads(canonical_json(result))

        result_text: str | None = None
        error: str | None = None
        executed_here = False
        t0 = time.monotonic()
        try:
            result, executed_here = self.cache.single_flight(job.key, compute)
            result_text = canonical_json(result)
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - a job must never kill its worker
            logger.exception("job %s crashed", job.id)
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - t0

        with self._lock:
            self._adjust_busy_locked(-1)
            if self._flights.get(job.key) is not flight or flight.thread is not me:
                # The watchdog already ruled on this attempt (failed or
                # requeued it) — a late result must not overrule it.
                self.metrics.counter("service.results_abandoned").inc()
                return True
            del self._flights[job.key]
            followers = flight.followers
            terminal = (
                {"state": "done", "result_text": result_text} if error is None
                else {"state": "failed", "error": error}
            )
            now = time.monotonic()
            for j in (job, *followers):
                self._finish_locked(j, finished_s=now, **terminal)
            n = 1 + len(followers)
            if error is None:
                self.metrics.counter("service.jobs_done").inc(n)
                self.metrics.counter(
                    "service.single_flight_executed" if executed_here
                    else "service.single_flight_followed"
                ).inc()
            else:
                self.metrics.counter("service.jobs_failed").inc(n)
            self.metrics.histogram(
                "service.job_seconds", JOB_SECONDS_BUCKETS
            ).observe(elapsed)
            if tel.enabled:
                for name, c in sorted(tel.metrics.counters.items()):
                    self.telemetry.metrics.counter(name).inc(c.value)
                if self._span_log is not None:
                    # Tag every worker span with the submitting request's
                    # trace, so an access-log trace_id resolves to the
                    # spans of the execution that served it.
                    for rec in tel.tracer.to_dicts():
                        attrs = dict(rec.get("attrs") or {})
                        attrs["trace_id"] = job.trace_id
                        attrs["job_id"] = job.id
                        self._span_log.append(dict(rec, attrs=attrs))
        return False
