"""``drbw campaign``: regenerate a paper table (II, V, or VII) as a
sharded campaign (see ``docs/parallelism.md``)."""

from __future__ import annotations

import sys

from repro import telemetry
from repro.core.training import train_default_classifier, training_matrix
from repro.core.validation import cross_validate
from repro.errors import ReproError
from repro.eval.experiments import (
    TrainingSummary,
    run_table5_detection,
    run_table7_overhead,
)
from repro.eval.tables import (
    format_table2,
    format_table5,
    format_table6,
    format_table7,
    k_fold_line,
)
from repro.numasim.machine import Machine
from repro.parallel.cache import ResultCache
from repro.parallel.campaign import resolve_jobs
from repro.parallel.journal import CampaignJournal
from repro.telemetry.artifact import collect_metadata, export_artifact
from repro.types import Mode


def cmd_campaign(args) -> int:
    jobs = resolve_jobs(args.jobs)

    if args.journal and args.resume and args.journal != args.resume:
        raise ReproError("--journal and --resume point at different files")
    journal_path = args.resume or args.journal
    if args.out and journal_path is None:
        raise ReproError("--out requires --journal or --resume")

    runner_opts: dict = {}
    if journal_path is not None:
        runner_opts["journal_path"] = journal_path
        runner_opts["resume"] = bool(args.resume)
    if args.retries is not None:
        from repro.resilience import RetryPolicy

        runner_opts["retry"] = RetryPolicy(max_attempts=args.retries, seed=args.seed)
    if args.task_timeout is not None:
        runner_opts["task_timeout_s"] = args.task_timeout
    if args.quarantine:
        runner_opts["on_exhausted"] = "quarantine"
    if args.infra_faults:
        from repro.faults import FaultyResultCache, parse_infra_plan

        infra = parse_infra_plan(args.infra_faults)
        runner_opts["infra"] = infra
        cache = FaultyResultCache(
            args.cache_dir, enabled=not args.no_cache, infra_plan=infra
        )
        print(f"infra faults: {infra.describe()}", file=sys.stderr)
    else:
        cache = ResultCache(args.cache_dir, enabled=not args.no_cache)

    benchmarks = (
        [b.strip() for b in args.benchmarks.split(",") if b.strip()]
        if args.benchmarks
        else None
    )
    machine = Machine()
    tel = telemetry.Telemetry(enabled=args.telemetry is not None)
    results: dict = {"experiment": args.experiment, "jobs": jobs}
    with telemetry.session(tel):
        if args.experiment == "table2":
            clf, instances = train_default_classifier(
                machine, seed=args.seed, jobs=jobs, cache=cache,
                runner_opts=runner_opts or None,
            )
            X, y = training_matrix(list(instances))
            cv = cross_validate(clf, X, y, k=10, seed=args.seed)
            counts: dict[str, list[int]] = {}
            for inst in instances:
                slot = counts.setdefault(inst.config.program, [0, 0])
                slot[0 if inst.label is Mode.GOOD else 1] += 1
            summary = TrainingSummary(
                counts={k: (v[0], v[1]) for k, v in counts.items()}
            )
            print(format_table2(summary))
            print(k_fold_line(cv))
            results.update(cv_accuracy=cv.accuracy, n_instances=len(instances))
        elif args.experiment == "table5":
            detection = run_table5_detection(
                seed=args.seed, benchmarks=benchmarks, jobs=jobs, cache=cache,
                runner_opts=runner_opts or None,
            )
            print(format_table5(detection))
            print()
            print(format_table6(detection.accuracy_summary()))
            results.update(
                n_cases=len(detection.cases),
                accuracy=detection.accuracy_summary().accuracy,
                false_negative_rate=detection.false_negative_rate,
                false_positive_rate=detection.false_positive_rate,
            )
        else:
            rows = run_table7_overhead(
                seed=args.seed, jobs=jobs, cache=cache,
                runner_opts=runner_opts or None,
            )
            print(format_table7(rows))
            results.update(
                overheads={r.benchmark: r.overhead for r in rows},
            )
    results["cache"] = cache.stats
    print(
        f"campaign {args.experiment}: jobs={jobs}, "
        f"cache hits={cache.hits} misses={cache.misses}"
        + ("" if cache.enabled else " (cache disabled)"),
        file=sys.stderr,
    )
    if journal_path is not None:
        # Reopen read-only-ish (resume mode appends nothing) to report
        # checkpoint coverage and render the merged payload stream.
        with CampaignJournal(journal_path, args.seed, resume=True) as jrn:
            results["journal"] = {"path": str(journal_path), "shards": len(jrn)}
            print(
                f"journal {journal_path}: {len(jrn)} shard(s) checkpointed"
                + (" (resumed)" if args.resume else ""),
                file=sys.stderr,
            )
            if args.out:
                lines = jrn.merged_payload_lines()
                with open(args.out, "w") as fh:
                    fh.write("\n".join(lines) + ("\n" if lines else ""))
                print(
                    f"merged payloads written to {args.out} ({len(lines)} line(s))",
                    file=sys.stderr,
                )
    if args.telemetry:
        meta = collect_metadata(
            f"campaign:{args.experiment}", args.seed, machine.topology,
            jobs=jobs,
        )
        export_artifact(args.telemetry, tel, meta, results)
        print(f"telemetry artifact written to {args.telemetry}", file=sys.stderr)
    return 0
