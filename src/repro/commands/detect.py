"""``drbw detect`` and ``drbw diagnose``: profile one benchmark analog
under a ``Tt-Nn`` configuration, print the per-channel verdicts and, for
``diagnose``, the Contribution-Fraction ranking and suggested remedies."""

from __future__ import annotations

import sys

from repro import telemetry
from repro.commands.common import load_or_train, profiler_config, resolve_benchmark
from repro.core.classifier import classify_case
from repro.core.diagnoser import Diagnoser
from repro.core.profiler import DrBwProfiler
from repro.core.report import (
    format_channel_labels,
    format_channel_verdicts,
    format_degradation,
    format_diagnosis,
    suggest_remedy,
)
from repro.eval.configs import config_by_name
from repro.numasim.machine import Machine
from repro.parallel.seeding import canonical_json

# The telemetry-payload JSON fragments are shared with the service's job
# executor so the CLI and service outputs can never drift.
from repro.service.jobspec import (
    degradation_payload,
    diagnosis_payload,
    execute_job,
    verdicts_payload,
)
from repro.telemetry.artifact import collect_metadata, export_artifact
from repro.types import Mode


def cmd_detect(args, want_diagnosis: bool = False) -> int:
    if getattr(args, "json", False):
        return _cmd_detect_json(args, want_diagnosis)
    # Validate everything cheap (benchmark, config, fault plan) before the
    # expensive model load/train.
    spec, inp = resolve_benchmark(args)
    cfg = config_by_name(args.config)
    profiler_cfg = profiler_config(args)
    machine = Machine()
    tel = telemetry.Telemetry(enabled=args.telemetry is not None)
    diagnosis = None
    with telemetry.session(tel):
        clf = load_or_train(args.model, args.seed, machine)

        workload = spec.build(inp)
        profile = DrBwProfiler(machine, profiler_cfg).profile(
            workload, cfg.n_threads, cfg.n_nodes, seed=args.seed
        )
        verdicts = clf.classify_profile_detailed(profile)
        labels = {ch: v.mode for ch, v in verdicts.items()}
        print(f"{spec.name} ({inp}) under {cfg.name}:")
        if profiler_cfg.faults is not None:
            print(format_channel_verdicts(verdicts))
            print(format_degradation(profile.dropped))
        else:
            print(format_channel_labels(labels))
        verdict = classify_case(labels)
        print(f"case verdict: {verdict}")

        if want_diagnosis:
            if verdict is not Mode.RMC:
                print("nothing to diagnose: no contended channel")
            else:
                diagnosis = Diagnoser().diagnose(profile, labels)
                print()
                print(format_diagnosis(diagnosis))
                top = diagnosis.top(1)[0]
                print(f"\nsuggested remedy for {top.name!r}: {suggest_remedy(top)}")

    if args.telemetry:
        meta = collect_metadata(
            "diagnose" if want_diagnosis else "detect",
            args.seed,
            machine.topology,
            faults=profiler_cfg.faults,
            benchmark=spec.name,
            input=inp,
            config=cfg.name,
        )
        results = {
            "channel_verdicts": verdicts_payload(verdicts),
            "case_verdict": verdict.value,
            "degradation": degradation_payload(profile.dropped),
            "diagnosis": diagnosis_payload(diagnosis) if diagnosis else None,
        }
        export_artifact(args.telemetry, tel, meta, results)
        print(f"telemetry artifact written to {args.telemetry}", file=sys.stderr)
    return 0 if verdict is Mode.GOOD else 2


def cmd_diagnose(args) -> int:
    return cmd_detect(args, want_diagnosis=True)


def _cmd_detect_json(args, want_diagnosis: bool) -> int:
    """``--json``: run the job exactly as the service would and print its
    canonical bytes.  One executor, two transports — that is the whole
    byte-identity guarantee."""
    result = execute_job({
        "kind": "diagnose" if want_diagnosis else "detect",
        "benchmark": args.benchmark,
        "input": args.input,
        "config": args.config,
        "seed": args.seed,
        "faults": args.faults,
        "model": args.model,
    })
    print(canonical_json(result))
    return 0 if result["case_verdict"] == Mode.GOOD.value else 2
