"""Multi-process sharded serving: the ``drbw serve --workers N`` supervisor.

One supervisor process pre-forks ``N`` worker processes, each a complete
single-process service (HTTP handler threads + job worker threads +
warm-result cache), all answering on **one** host:port.  Every worker
binds its own ``SO_REUSEPORT`` socket to that port
(:attr:`~repro.httpapp.HttpApp.reuse_port`) and the kernel
load-balances accepted connections across them.  The supervisor binds
first only to reserve the port (and resolve ``port=0``), then closes
its socket once every worker has reported ready — it never accepts.
For a fixed port, a plain bind without ``SO_REUSEPORT`` probes it
first, so a port any listener holds (another fleet's ``SO_REUSEPORT``
group included) fails with a :class:`~repro.errors.ServiceError`
instead of being shared.  Two fleets started in the same instant can
both pass the probe before either reserves; they then share the port.
``SO_REUSEPORT`` is the one pre-fork topology: workers sharing a single
forked socket can lose the ``select`` race to a sibling and block in
``accept()`` through a shutdown, never draining.  A platform without
``SO_REUSEPORT`` gets a :class:`~repro.errors.ServiceError` for
``--workers`` > 1; ``--workers 1`` never needs it.

What makes N processes *one service*:

* the shared :class:`~repro.parallel.cache.ResultCache` directory plus
  its claim-file protocol gives **cross-process single-flight** — a
  storm of identical specs executes once fleet-wide.  Every worker's
  :class:`~repro.service.queue.ServiceQueue` runs each primary through
  ``ResultCache.single_flight``, exactly as ``--workers 1`` does, so
  this needs no multi-process switch;
* fleet-unique job ids (``job-w1-000003``) plus shared per-job records
  (:class:`~repro.service.jobstore.JobStore`) mean a status or result
  poll answered by *any* worker — the kernel picks one per connection —
  reports the right job, byte-identically;
* ``/metrics`` scraped from any worker merges every worker's snapshot
  file into one fleet page (:mod:`~repro.service.metricsagg`);
* SIGTERM to the supervisor forwards SIGTERM to every worker; each
  drains its accepted jobs and exits 0, and the supervisor exits 0 once
  all have.

Workers are full processes, so results are byte-identical to the
single-process path by construction: the same executor produces the
same canonical JSON whichever process runs it, and the cache stores
exactly those bytes (pinned by ``tests/service/test_mpserve.py`` and
the ``bench_mpserve`` in-bench identity assertion).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import ServiceError
from repro.httpapp import HttpApp
from repro.jsonl import JsonlLog
from repro.parallel.cache import ResultCache
from repro.service.accesslog import AccessLog
from repro.service.admission import AdmissionController
from repro.service.jobstore import JobStore
from repro.service.queue import SERVICE_CACHE_SCHEMA, ServiceQueue
from repro.service.server import ServiceServer

__all__ = ["WorkerConfig", "ServiceSupervisor", "serve_worker"]

logger = logging.getLogger(__name__)

#: How long the supervisor waits for every worker to report ready.
READY_TIMEOUT_S = 30.0

#: How long the supervisor waits for workers to drain after SIGTERM
#: before escalating to SIGKILL (a drain should be bounded by job
#: runtimes; this is the backstop against a wedged worker).
DRAIN_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class WorkerConfig:
    """Plain-data serve configuration, shared by supervisor and workers.

    Everything here is JSON-able on purpose: workers rebuild their whole
    stack from this one value after the fork, so nothing live crosses
    the process boundary.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    #: Server *processes* (the supervisor path engages when > 1).
    workers: int = 1
    #: Job worker *threads* per process.
    threads: int = 2
    capacity: int = 16
    rate: float | None = None
    burst: float = 10.0
    cache_dir: str | None = None
    no_cache: bool = False
    telemetry_enabled: bool = True
    job_timeout_s: float | None = None
    job_max_attempts: int = 1
    degraded_window_s: float = 30.0
    infra_faults: str | None = None
    access_log: str | None = None
    span_log: str | None = None
    #: Shared metrics-snapshot directory (supervisor fills it in).
    metrics_dir: str | None = None
    #: Shared per-job record directory: any worker can answer status and
    #: result polls for jobs accepted by a sibling (supervisor fills it in).
    jobs_dir: str | None = None
    batch_depth_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")


class _PortProbe(HttpApp):
    """A plain bind of the port, made and closed before the reservation."""

    error = ServiceError
    label = "service"


class _PortReservation(_PortProbe):
    """The supervisor's never-served ``SO_REUSEPORT`` bind of the port."""

    reuse_port = True


def serve_worker(
    cfg: WorkerConfig,
    worker_index: int = 0,
    on_ready: Callable[[ServiceServer], None] | None = None,
) -> None:
    """Build one complete service stack from plain config and serve it
    until SIGTERM/SIGINT has drained it.

    The single-process CLI path (``worker_index=0``, ``cfg.workers ==
    1``) and every pre-forked worker (whose shared metrics directory
    makes it bind with ``SO_REUSEPORT``) run exactly this, so the two
    modes cannot drift apart.
    ``on_ready(server)`` runs once the server is bound.  Returning means
    the requested drain completed: every accepted job finished.
    """
    worker_tag = f"w{worker_index}"
    multiproc = cfg.workers > 1

    executor = None
    infra = None
    if cfg.infra_faults:
        from repro.faults import faulty_executor, parse_infra_plan

        infra = parse_infra_plan(cfg.infra_faults)
        executor = faulty_executor(infra)
    cache = None
    if not cfg.no_cache:
        if infra is not None:
            from repro.faults import FaultyResultCache

            cache = FaultyResultCache(
                cfg.cache_dir, schema=SERVICE_CACHE_SCHEMA, infra_plan=infra
            )
        else:
            cache = ResultCache(cfg.cache_dir, schema=SERVICE_CACHE_SCHEMA)

    def _worker_path(path: str | None) -> str | None:
        # Per-process log files: concurrent appenders to one JSONL file
        # could tear records, so each worker gets a suffixed sibling.
        if path is None or not multiproc:
            return path
        return f"{path}.{worker_tag}"

    access_log_path = _worker_path(cfg.access_log)
    span_log_path = _worker_path(cfg.span_log)
    access_log = AccessLog(access_log_path) if access_log_path else None
    span_log = (
        JsonlLog(span_log_path, error=ServiceError, resume=True)
        if span_log_path
        else None
    )

    queue_opts: dict = {}
    if executor is not None:
        queue_opts["executor"] = executor
    if multiproc:
        # Fleet-unique job ids plus shared records: a poll for a job
        # accepted by any worker can be answered by any other.
        queue_opts["store"] = JobStore(
            prefix=f"job-{worker_tag}", shared_dir=cfg.jobs_dir
        )
    queue = ServiceQueue(
        workers=cfg.threads,
        capacity=cfg.capacity,
        cache=cache,
        telemetry_enabled=cfg.telemetry_enabled,
        job_timeout_s=cfg.job_timeout_s,
        job_max_attempts=cfg.job_max_attempts,
        degraded_window_s=cfg.degraded_window_s,
        access_log=access_log,
        span_log=span_log,
        **queue_opts,
    )
    server = ServiceServer(
        queue,
        host=cfg.host,
        port=cfg.port,
        rate=cfg.rate,
        burst=cfg.burst,
        access_log=access_log,
        admission=AdmissionController(cfg.batch_depth_fraction),
        metrics_dir=cfg.metrics_dir if multiproc else None,
        worker_id=worker_tag,
    )

    def _graceful(signum, frame) -> None:
        print("drbw serve: signal received, draining ...", file=sys.stderr)
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    if on_ready is not None:
        on_ready(server)
    try:
        server.serve_forever()
    finally:
        for log in (access_log, span_log):
            if log is not None:
                log.close()


def _worker_main(
    cfg: WorkerConfig, worker_index: int, reservation: HttpApp, ready
) -> None:
    """A worker process: serve until SIGTERM; exiting 0 is its receipt
    that no accepted job was lost."""
    # The fork handed us a copy of the supervisor's port-reservation
    # socket.  Close it *before* binding our own: a forgotten copy would
    # keep that socket alive as an N+1th member of the port group,
    # receiving a share of connections nobody ever accepts.
    reservation.stop()
    serve_worker(cfg, worker_index, on_ready=lambda server: ready.set())


class ServiceSupervisor:
    """Pre-fork, monitor, and drain ``cfg.workers`` service processes."""

    def __init__(self, cfg: WorkerConfig) -> None:
        if cfg.workers < 2:
            raise ServiceError("ServiceSupervisor needs workers >= 2; "
                               "run ServiceServer directly for one process")
        # Shared directories the caller did not pick live in one
        # temporary tree that the supervisor removes when it is done.
        self._tmp = tempfile.mkdtemp(prefix="drbw-mpserve-")
        self.cfg = replace(
            cfg,
            metrics_dir=cfg.metrics_dir or os.path.join(self._tmp, "metrics"),
            jobs_dir=cfg.jobs_dir or os.path.join(self._tmp, "jobs"),
        )
        # Worker processes are forked, not spawned: each starts from the
        # supervisor's imported modules and its copy of the reservation.
        self._ctx = multiprocessing.get_context("fork")
        self._procs: list = []
        self._reservation: HttpApp | None = None
        self._shutdown_requested = False
        self.port = cfg.port

    @property
    def url(self) -> str:
        return f"http://{self.cfg.host}:{self.port}"

    def start(self) -> ServiceSupervisor:
        """Bind, fork every worker, and wait until all are accepting."""
        if self._procs:
            raise ServiceError("supervisor already started")
        # Only reserves the port (and resolves port=0), failing fast when
        # it is taken; the workers bind their own sockets to it.  The
        # probe keeps the reservation from joining another fleet's group.
        try:
            if self.cfg.port:
                _PortProbe(self.cfg.host, self.cfg.port).stop()
            self._reservation = _PortReservation(self.cfg.host, self.cfg.port)
        except ServiceError:
            self._cleanup()
            raise
        self.port = self._reservation.port
        cfg = replace(self.cfg, port=self.port)
        events = []
        for i in range(cfg.workers):
            ready = self._ctx.Event()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(cfg, i, self._reservation, ready),
                name=f"drbw-serve-{i}",
            )
            proc.start()
            self._procs.append(proc)
            events.append(ready)
        deadline = time.monotonic() + READY_TIMEOUT_S
        for i, ready in enumerate(events):
            if not ready.wait(timeout=max(0.0, deadline - time.monotonic())):
                self.terminate()
                raise ServiceError(f"worker {i} did not become ready within "
                                   f"{READY_TIMEOUT_S:g}s")
        # Every worker is accepting; the reservation has done its job and
        # closes so the kernel stops routing connections to it.
        self._reservation.stop()
        self._reservation = None
        return self

    def request_shutdown(self) -> None:
        """Forward a graceful drain to every worker (idempotent)."""
        self._shutdown_requested = True
        for proc in self._procs:
            if proc.is_alive():
                try:
                    os.kill(proc.pid, signal.SIGTERM)
                except OSError:
                    pass

    def terminate(self) -> None:
        """Kill every worker (the failed-start path)."""
        for proc in self._procs:
            if proc.is_alive():
                proc.kill()
        for proc in self._procs:
            proc.join(timeout=10.0)
        self._cleanup()

    def wait(self) -> int:
        """Block until every worker exits; 0 only if all exited 0.

        A worker dying *without* a requested shutdown is a fleet fault:
        the rest are drained and the supervisor reports failure — a
        silently shrunken fleet must not look healthy.
        """
        unexpected_death = False
        drain_deadline: float | None = None
        try:
            while any(p.is_alive() for p in self._procs):
                if self._shutdown_requested and drain_deadline is None:
                    drain_deadline = time.monotonic() + DRAIN_TIMEOUT_S
                if drain_deadline is not None and time.monotonic() >= drain_deadline:
                    for proc in self._procs:
                        if proc.is_alive():
                            logger.error(
                                "worker %s ignored the drain; killing", proc.name
                            )
                            proc.kill()
                    drain_deadline = time.monotonic() + DRAIN_TIMEOUT_S
                for proc in self._procs:
                    proc.join(timeout=0.2)
                    if proc.exitcode is not None and not self._shutdown_requested:
                        unexpected_death = True
                        logger.error(
                            "worker %s exited unexpectedly with code %s; "
                            "draining fleet", proc.name, proc.exitcode,
                        )
                        self.request_shutdown()
        finally:
            self._cleanup()
        codes = [p.exitcode for p in self._procs]
        return 0 if all(c == 0 for c in codes) and not unexpected_death else 1

    def serve_forever(self) -> int:
        """The CLI entry point: start, wire signals, wait; returns exit code."""
        self.start()

        def _graceful(signum, frame) -> None:
            print("drbw serve: signal received, draining workers ...",
                  file=sys.stderr)
            self.request_shutdown()

        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
        print(
            f"drbw service listening on {self.url} "
            f"({self.cfg.workers} workers)",
            file=sys.stderr,
        )
        return self.wait()

    def _cleanup(self) -> None:
        if self._reservation is not None:
            self._reservation.stop()
            self._reservation = None
        shutil.rmtree(self._tmp, ignore_errors=True)
