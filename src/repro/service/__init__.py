"""The DR-BW profiling service: batch jobs over HTTP, CLI-identical results.

``drbw serve`` runs a stdlib-only daemon that accepts profile / detect /
diagnose jobs as JSON specs, executes them on a bounded worker pool, and
serves results that are **byte-identical** to what the corresponding
``drbw`` command prints with ``--json`` (the two paths share one
executor, :func:`~repro.service.jobspec.execute_job`).

The moving parts, one module each:

* :mod:`~repro.service.jobspec`   — spec validation, canonical job
  identity, and execution;
* :mod:`~repro.service.jobstore`  — the in-memory job table and states;
* :mod:`~repro.service.queue`     — the bounded queue, its flight table
  (identical in-flight jobs execute once, every submitter reads the
  same bytes), worker threads, warm-result cache, and token-bucket rate
  limiter;
* :mod:`~repro.service.server`    — the HTTP endpoints, backpressure
  responses (429 + ``Retry-After``), and graceful SIGTERM drain;
* :mod:`~repro.service.mpserve`   — the ``--workers N`` pre-fork
  supervisor: one port shared via SO_REUSEPORT, cross-process
  single-flight, fleet drain;
* :mod:`~repro.service.admission` — priority classes
  (``X-Drbw-Priority``) layered over the token buckets;
* :mod:`~repro.service.metricsagg` — ``/metrics`` snapshot merge so any
  worker's scrape covers the whole fleet;
* :mod:`~repro.service.client`    — a urllib client for scripts and the
  CI smoke test;
* :mod:`~repro.service.trace`     — ``X-Drbw-Trace`` request-trace
  propagation (client-minted or server-minted);
* :mod:`~repro.service.accesslog` — the structured JSONL access log
  (one record per HTTP request and per terminal job), written through
  the package-wide :class:`repro.jsonl.JsonlLog` like the span log.

See ``docs/service.md`` for the operator's view, including the
"Request tracing & SLOs" section.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.service.accesslog": (
        "ACCESS_LOG_VERSION",
        "AccessLog",
        "read_access_log",
        "validate_access_record",
    ),
    "repro.service.admission": (
        "DEFAULT_PRIORITY",
        "PRIORITIES",
        "PRIORITY_HEADER",
        "AdmissionController",
    ),
    "repro.service.client": ("ServiceClient", "parse_retry_after"),
    "repro.service.mpserve": (
        "ServiceSupervisor",
        "WorkerConfig",
        "serve_worker",
    ),
    "repro.service.jobspec": (
        "JOB_KINDS",
        "execute_job",
        "job_key",
        "normalize_job",
    ),
    "repro.service.jobstore": ("JOB_STATES", "Job", "JobStore"),
    "repro.service.queue": (
        "SERVICE_CACHE_SCHEMA",
        "ServiceQueue",
        "TokenBucket",
    ),
    "repro.service.server": ("ServiceServer",),
    "repro.service.trace": (
        "TRACE_HEADER",
        "TraceContext",
        "mint_trace",
        "parse_trace_header",
    ),
})
