"""``drbw serve``: run the profiling service daemon (see
``docs/service.md``)."""

from __future__ import annotations

import sys

from repro.service.jobspec import import_pipeline
from repro.service.mpserve import ServiceSupervisor, WorkerConfig, serve_worker


def cmd_serve(args) -> int:
    cfg = WorkerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        threads=args.threads,
        capacity=args.queue_size,
        rate=args.rate,
        burst=args.burst,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        telemetry_enabled=not args.no_telemetry,
        job_timeout_s=args.job_timeout,
        job_max_attempts=args.job_attempts,
        degraded_window_s=args.degraded_window,
        infra_faults=args.infra_faults,
        access_log=args.access_log,
        span_log=args.spans,
        batch_depth_fraction=args.batch_fraction,
    )
    if args.infra_faults:
        from repro.faults import parse_infra_plan

        plan = parse_infra_plan(args.infra_faults)
        print(f"infra faults: {plan.describe()}", file=sys.stderr)

    # Ready means the first job pays no import: load the executor's whole
    # pipeline before any listener opens (and, with --workers N, before
    # the fork, so every worker inherits it).
    import_pipeline()
    if args.workers > 1:
        # Multi-process mode: the supervisor pre-forks args.workers full
        # service processes sharing one port, one cache directory,
        # and the single-flight claim protocol.
        supervisor = ServiceSupervisor(cfg)
        code = supervisor.serve_forever()
        print("drbw serve: drained, exiting", file=sys.stderr)
        return code

    serve_worker(cfg, on_ready=lambda server: print(
        f"drbw service listening on {server.url}", file=sys.stderr
    ))
    print("drbw serve: drained, exiting", file=sys.stderr)
    return 0
