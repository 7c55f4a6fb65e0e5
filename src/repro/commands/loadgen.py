"""``drbw loadgen``: drive a live service with open-loop, closed-loop or
sweep load and check it against a declarative SLO spec."""

from __future__ import annotations

import itertools
import json
import sys

from repro.commands.common import resolve_benchmark
from repro.errors import ConfigError
from repro.eval.configs import config_by_name
from repro.parallel.shards import benchmark_workload_spec, profile_shard
from repro.slo.loadgen import concurrency_sweep, run_closed_loop, run_open_loop
from repro.slo.report import build_report, render_report
from repro.slo.spec import load_slo_spec


def _loadgen_job_factory(args):
    """The probe-job spec factory for ``drbw loadgen``.

    Returns ``f(k) -> spec`` for request index ``k``.  Unless
    ``--same-job`` is set, the seed varies per request so every request
    is a distinct job (distinct ``job_key``), defeating coalescing
    and the warm cache — the load hits the real execution path.  The
    seed counter is shared across the whole invocation, not per run:
    sweep levels must not re-submit the previous level's specs, or a
    caching server would answer them warm and the sweep would measure
    the cache instead of execution.
    """
    spec_bench, inp = resolve_benchmark(args)
    cfg = config_by_name(args.config)
    if args.kind == "profile":
        shard = profile_shard(
            benchmark_workload_spec(spec_bench.name, inp),
            cfg.n_threads, cfg.n_nodes,
        )
        base = {"kind": "profile", "spec": shard}
    else:
        if not args.model:
            raise ConfigError(f"{args.kind} probe jobs need --model")
        base = {
            "kind": args.kind, "benchmark": spec_bench.name, "input": inp,
            "config": cfg.name, "model": args.model,
        }

    counter = itertools.count()  # invocation-global, CPython-atomic

    def spec_for(k: int) -> dict:
        if args.same_job:
            return dict(base, seed=args.seed)
        return dict(base, seed=args.seed + next(counter))

    return spec_for


def cmd_loadgen(args) -> int:
    # Parse everything (including the SLO spec) before generating load.
    slo_spec = load_slo_spec(args.slo) if args.slo else None
    job_factory = _loadgen_job_factory(args)
    try:
        levels = [int(c) for c in args.concurrency.split(",") if c.strip()]
    except ValueError:
        raise ConfigError(
            f"cannot parse --concurrency {args.concurrency!r}; "
            "expected N or N,N,..."
        ) from None
    if not levels:
        raise ConfigError("--concurrency needs at least one level")

    if args.mode == "open":
        print(
            f"loadgen: open loop at {args.rps} rps for {args.duration}s "
            f"against {args.url}", file=sys.stderr,
        )
        results = [run_open_loop(
            args.url, job_factory,
            target_rps=args.rps, duration_s=args.duration,
            timeout=args.timeout,
        )]
    elif args.mode == "sweep":
        print(
            f"loadgen: closed-loop sweep over concurrency {levels} "
            f"({args.duration}s each) against {args.url}", file=sys.stderr,
        )
        results = concurrency_sweep(
            args.url, job_factory,
            concurrencies=levels, duration_s=args.duration,
            timeout=args.timeout,
        )
    else:
        print(
            f"loadgen: closed loop at concurrency {levels[0]} for "
            f"{args.duration}s against {args.url}", file=sys.stderr,
        )
        results = [run_closed_loop(
            args.url, job_factory,
            concurrency=levels[0], duration_s=args.duration,
            timeout=args.timeout,
        )]

    report = build_report(
        results, slo_spec, url=args.url,
        job={"kind": args.kind, "benchmark": args.benchmark,
             "config": args.config, "same_job": bool(args.same_job)},
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"SLO report written to {args.report}", file=sys.stderr)
    print(render_report(report))
    slo = report.get("slo")
    return 1 if slo and slo["breached"] else 0
