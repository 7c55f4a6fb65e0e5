"""Command-line interface: ``python -m repro.cli <command>``.

The workflow a release user runs without writing Python:

* ``train``    — collect the Table II training set, fit, cross-validate,
  and save the model to JSON;
* ``detect``   — profile one benchmark analog under a ``Tt-Nn``
  configuration and print the per-channel verdicts;
* ``diagnose`` — detect, then print the Contribution-Fraction ranking and
  suggested remedies;
* ``monitor``  — profile a benchmark (or the built-in ``demo`` workload)
  with *live* monitoring: sliding-window verdicts per channel, an alert
  engine, an optional JSONL event stream (``--events``) and an optional
  Prometheus ``/metrics`` endpoint (``--serve``); exits 2 when any
  channel was held in ``rmc`` at any point;
* ``fleet``    — simulate N machines concurrently, each live-monitored,
  streaming per-window wire records into one fleet aggregator:
  per-epoch rollups, top-K contended channels, fleet-scoped alerts, a
  cross-machine Perfetto timeline (``--timeline``), a replayable wire
  recording (``--events``/``--replay``), and fleet-labelled Prometheus
  metrics + push ingest over HTTP (``--serve``); exits 2 when a
  fleet-level rmc alert fired (see ``docs/observability.md``);
* ``campaign`` — regenerate a paper table (II, V, or VII) as a sharded
  campaign: ``--jobs N`` fans the workload × configuration grid over a
  worker pool, results are bit-identical for any N, and the on-disk
  shard cache (``--cache-dir``/``--no-cache``) makes unchanged re-runs
  near-instant (see ``docs/parallelism.md``);
* ``serve``    — run the profiling service daemon: profile/detect/
  diagnose jobs over HTTP with request coalescing, a bounded queue
  (429 + ``Retry-After`` under saturation), per-client rate limits,
  ``/healthz``/``/readyz``/``/metrics`` endpoints, a graceful
  SIGTERM drain, and optional trace-carrying JSONL access/span logs
  (``--access-log``/``--spans``, see ``docs/service.md``);
* ``loadgen``  — drive a live service with open-loop (fixed arrival
  rate), closed-loop (fixed concurrency), or sweep (saturation-knee)
  load, then check the measured availability / latency quantiles /
  throughput against a declarative SLO spec: exits 1 on breach and
  writes the ``drbw-slo-report`` artifact (``--report``);
* ``report``   — render the text dashboard for a telemetry artifact
  exported by a previous run (``--stages`` for the per-stage wall/CPU
  aggregate only);
* ``list``     — the available benchmarks and their inputs.

``detect`` and ``diagnose`` also take ``--json``: print the machine-
readable result as one canonical-JSON line instead of the human text —
byte-identical to what the service returns for the same job spec.

``detect`` and ``diagnose`` accept ``--faults`` (a preset name such as
``standard``, or ``drop=0.1,corrupt=0.01``-style pairs) to run the
pipeline under injected collection faults; the output then includes a
degradation summary and per-channel confidence.  ``train``/``detect``/
``diagnose`` accept ``--telemetry[=DIR]`` to record stage spans, pipeline
metrics, and per-channel timelines, exported as a run artifact that
``report`` (or Perfetto, via ``trace.json``) can inspect later.  ``-v``
/``-q`` raise/lower library log verbosity.  Any :class:`ReproError` —
unknown benchmark, bad configuration, malformed model file, invalid
fault spec, broken artifact — prints one line to stderr and exits with
status 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from repro import telemetry
from repro.core.classifier import DrBwClassifier, classify_case
from repro.core.diagnoser import Diagnoser
from repro.core.profiler import DrBwProfiler, ProfilerConfig
from repro.core.report import (
    format_channel_labels,
    format_channel_verdicts,
    format_degradation,
    format_diagnosis,
    suggest_remedy,
)
from repro.core.training import train_default_classifier, training_matrix
from repro.core.validation import cross_validate
from repro.errors import ConfigError, ReproError
from repro.eval.configs import config_by_name
from repro.faults import FAULT_PRESETS, INFRA_PRESETS, parse_fault_plan
from repro.numasim.machine import Machine

# The telemetry-payload JSON fragments are shared with the service's job
# executor so the CLI and service outputs can never drift.
from repro.service.jobspec import (
    degradation_payload as _degradation_payload,
    diagnosis_payload as _diagnosis_payload,
    verdicts_payload as _verdicts_payload,
)
from repro.telemetry.artifact import (
    collect_metadata,
    export_artifact,
    load_artifact,
)
from repro.telemetry.dashboard import render_dashboard, render_stage_table
from repro.types import Mode
from repro.workloads.suites.registry import BENCHMARKS

__all__ = ["main", "build_parser"]

#: Default artifact directory for a bare ``--telemetry``.
DEFAULT_TELEMETRY_DIR = "drbw-telemetry"


def _add_common(p: argparse.ArgumentParser, with_telemetry: bool = True) -> None:
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="more library logging (-v info, -vv debug)")
    p.add_argument("-q", "--quiet", action="count", default=0,
                   help="less library logging (errors only)")
    if with_telemetry:
        p.add_argument("--telemetry", nargs="?", const=DEFAULT_TELEMETRY_DIR,
                       default=None, metavar="DIR",
                       help="record spans/metrics/timelines and export a run "
                            f"artifact to DIR (default: {DEFAULT_TELEMETRY_DIR}/)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drbw",
        description="DR-BW: identify NUMA bandwidth contention (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train and save the classifier")
    p_train.add_argument("--model", default="drbw_model.json",
                         help="output JSON path (default: drbw_model.json)")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes for training collection "
                              "(default: $DRBW_JOBS, else serial)")
    _add_common(p_train)

    p_camp = sub.add_parser(
        "campaign",
        help="run a sharded experiment campaign (Tables II/V/VII)",
    )
    p_camp.add_argument("experiment", choices=("table2", "table5", "table7"),
                        help="which campaign to run: table2 (training set + "
                             "CV), table5 (detection sweep), table7 "
                             "(profiling overhead)")
    p_camp.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: $DRBW_JOBS, else 1; "
                             "results are identical for any N)")
    p_camp.add_argument("--seed", type=int, default=0)
    p_camp.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="shard result cache (default: $DRBW_CACHE_DIR, "
                             "else ~/.cache/drbw)")
    p_camp.add_argument("--no-cache", action="store_true",
                        help="recompute every shard, read/write no cache")
    p_camp.add_argument("--benchmarks", default=None, metavar="A,B,...",
                        help="comma-separated benchmark subset (table5 only)")
    p_camp.add_argument("--journal", default=None, metavar="FILE",
                        help="checkpoint completed shards to this JSONL "
                             "write-ahead journal as they finish")
    p_camp.add_argument("--resume", default=None, metavar="FILE",
                        help="resume from an interrupted campaign's journal "
                             "(implies --journal FILE; completed shards are "
                             "replayed, not re-executed)")
    p_camp.add_argument("--out", default=None, metavar="FILE",
                        help="write merged shard payloads (canonical JSON, "
                             "one line per shard in spec order) — requires "
                             "--journal or --resume")
    p_camp.add_argument("--retries", type=int, default=None, metavar="N",
                        help="max attempts per shard after worker crashes or "
                             "deadline expiry (default: 3)")
    p_camp.add_argument("--task-timeout", type=float, default=None, metavar="S",
                        help="per-shard deadline in seconds (default: none)")
    p_camp.add_argument("--infra-faults", default=None, metavar="PLAN",
                        help="inject infrastructure faults: a preset "
                             f"({', '.join(INFRA_PRESETS)}) or key=value "
                             "pairs, e.g. kill=0.3,enospc=0.2,seed=7 "
                             "(chaos testing; results stay byte-identical)")
    p_camp.add_argument("--quarantine", action="store_true",
                        help="quarantine shards that exhaust their retries "
                             "instead of failing the campaign")
    _add_common(p_camp)

    for name, hlp in (("detect", "classify a benchmark run"),
                      ("diagnose", "detect + rank the contended data objects")):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("benchmark", help="benchmark name (see `list`)")
        p.add_argument("--input", default=None,
                       help="input name (default: the benchmark's largest)")
        p.add_argument("--config", default="T32-N4",
                       help="Tt-Nn configuration (default: T32-N4)")
        p.add_argument("--model", default=None,
                       help="trained model JSON (default: train in-process)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--faults", default=None, metavar="PLAN",
                       help="inject collection faults: a preset "
                            f"({', '.join(FAULT_PRESETS)}) or key=value pairs, "
                            "e.g. drop=0.1,corrupt=0.01,seed=7")
        p.add_argument("--json", action="store_true",
                       help="print the result as one canonical-JSON line "
                            "(byte-identical to the service's job result)")
        _add_common(p)

    p_mon = sub.add_parser(
        "monitor", help="profile with live contention monitoring"
    )
    p_mon.add_argument("benchmark",
                       help="benchmark name (see `list`), or `demo` for the "
                            "built-in contend-then-recover workload")
    p_mon.add_argument("--input", default=None,
                       help="input name (default: the benchmark's largest)")
    p_mon.add_argument("--config", default="T16-N2",
                       help="Tt-Nn configuration (default: T16-N2)")
    p_mon.add_argument("--model", default=None,
                       help="trained model JSON (default: train in-process)")
    p_mon.add_argument("--seed", type=int, default=0)
    p_mon.add_argument("--faults", default=None, metavar="PLAN",
                       help="inject collection faults: a preset "
                            f"({', '.join(FAULT_PRESETS)}) or key=value pairs")
    p_mon.add_argument("--window", type=int, default=8, metavar="W",
                       help="sliding window width in intervals (default: 8)")
    p_mon.add_argument("--interval", type=float, default=None, metavar="CYCLES",
                       help="monitoring interval length in cycles "
                            "(default: 8e6)")
    p_mon.add_argument("--hysteresis", default=None, metavar="N/M",
                       help="require N agreeing verdicts of the last M to "
                            "flip a channel status (default: 2/3)")
    p_mon.add_argument("--rules", default=None, metavar="FILE",
                       help="JSON file with alert rules (default: built-ins)")
    p_mon.add_argument("--events", default=None, metavar="FILE",
                       help="write the JSONL event stream here")
    p_mon.add_argument("--serve", nargs="?", const=0, default=None, type=int,
                       metavar="PORT",
                       help="serve Prometheus text at /metrics during the run "
                            "(PORT 0 or omitted: OS-assigned)")
    p_mon.add_argument("--plain", action="store_true",
                       help="one line per window instead of the live "
                            "dashboard (useful for CI logs and pipes)")
    _add_common(p_mon)

    p_fleet = sub.add_parser(
        "fleet",
        help="simulate a fleet of machines into one aggregator",
    )
    p_fleet.add_argument("--machines", type=int, default=12, metavar="N",
                         help="simulated machines in the fleet (default: 12)")
    p_fleet.add_argument("--seed", type=int, default=0,
                         help="fleet seed; per-machine seeds, workloads, and "
                              "fault plans derive from it (default: 0)")
    p_fleet.add_argument("--config", default="T16-N2",
                         help="per-machine Tt-Nn configuration "
                              "(default: T16-N2)")
    p_fleet.add_argument("--model", default=None,
                         help="trained model JSON (default: train in-process)")
    p_fleet.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="concurrent machine simulations (default: "
                              "min(8, machines); results identical for any N)")
    p_fleet.add_argument("--contend-fraction", type=float, default=0.5,
                         metavar="F",
                         help="fraction of machines assigned the contended "
                              "workload (default: 0.5)")
    p_fleet.add_argument("--faults", default=None, metavar="PLAN",
                         help="collection fault plan for the faulted subset: "
                              f"a preset ({', '.join(FAULT_PRESETS)}) or "
                              "key=value pairs")
    p_fleet.add_argument("--faulted-fraction", type=float, default=0.25,
                         metavar="F",
                         help="fraction of machines running under --faults "
                              "(default: 0.25)")
    p_fleet.add_argument("--window", type=int, default=4, metavar="W",
                         help="per-machine sliding window width (default: 4)")
    p_fleet.add_argument("--interval", type=float, default=None,
                         metavar="CYCLES",
                         help="per-machine monitoring interval (default: 4e6)")
    p_fleet.add_argument("--accesses", type=float, default=1_500_000.0,
                         metavar="N",
                         help="contended-phase accesses per thread per "
                              "machine (default: 1500000; the default mix "
                              "fires and resolves the fleet rmc alert)")
    p_fleet.add_argument("--rules", default=None, metavar="FILE",
                         help="JSON file with fleet alert rules "
                              "(default: built-ins)")
    p_fleet.add_argument("--topk", type=int, default=5, metavar="K",
                         help="top contended channels to track (default: 5)")
    p_fleet.add_argument("--fleet-tag", default="fleet0", metavar="TAG",
                         help="fleet label on metrics and the rollup "
                              "(default: fleet0)")
    p_fleet.add_argument("--events", default=None, metavar="FILE",
                         help="write the JSONL wire stream here (replayable "
                              "with --replay)")
    p_fleet.add_argument("--events-max-kb", type=int, default=None,
                         metavar="KB",
                         help="rotate the wire file past this size, keeping "
                              "the last 3 segments (default: unbounded)")
    p_fleet.add_argument("--replay", default=None, metavar="FILE",
                         help="skip simulation: re-aggregate a recorded wire "
                              "stream (byte-identical derived state)")
    p_fleet.add_argument("--timeline", default=None, metavar="FILE",
                         help="export the cross-machine Chrome-trace timeline "
                              "JSON here (loadable in Perfetto)")
    p_fleet.add_argument("--rollup", default=None, metavar="FILE",
                         help="write the fleet rollup as canonical JSON here")
    p_fleet.add_argument("--serve", nargs="?", const=0, default=None, type=int,
                         metavar="PORT",
                         help="serve fleet /metrics, /v1/fleet/rollup and "
                              "push ingest during the run (PORT 0 or "
                              "omitted: OS-assigned)")
    p_fleet.add_argument("--serve-hold", action="store_true",
                         help="with --serve: keep the endpoints up after the "
                              "run until interrupted (scrapers never race "
                              "the run's end)")
    p_fleet.add_argument("--plain", action="store_true",
                         help="one line per fleet epoch instead of the live "
                              "dashboard (useful for CI logs and pipes)")
    _add_common(p_fleet, with_telemetry=False)

    p_serve = sub.add_parser(
        "serve", help="run the profiling service daemon"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="listen port, 0 for OS-assigned (default: 8787)")
    p_serve.add_argument("--workers", type=int, default=1, metavar="N",
                         help="server worker processes (default: 1); N > 1 "
                              "pre-forks N full service processes sharing "
                              "one port via SO_REUSEPORT, with cross-process "
                              "single-flight (see docs/service.md)")
    p_serve.add_argument("--threads", type=int, default=2, metavar="M",
                         help="job worker threads per process (default: 2)")
    p_serve.add_argument("--batch-fraction", type=float, default=0.5,
                         metavar="F",
                         help="admit X-Drbw-Priority: batch jobs only while "
                              "queue depth < F * queue size (default: 0.5)")
    p_serve.add_argument("--queue-size", type=int, default=16, metavar="N",
                         help="bounded job queue depth; full queue answers "
                              "429 with Retry-After (default: 16)")
    p_serve.add_argument("--rate", type=float, default=None, metavar="R",
                         help="per-client submissions/second token-bucket "
                              "rate (default: unlimited)")
    p_serve.add_argument("--burst", type=float, default=10.0, metavar="B",
                         help="per-client token-bucket burst (default: 10)")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="warm-result cache (default: $DRBW_CACHE_DIR, "
                              "else ~/.cache/drbw)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="execute every job, read/write no cache")
    p_serve.add_argument("--no-telemetry", action="store_true",
                         help="skip per-job pipeline telemetry aggregation")
    p_serve.add_argument("--job-timeout", type=float, default=None, metavar="S",
                         help="per-job deadline; the watchdog fails or "
                              "requeues jobs that exceed it (default: none)")
    p_serve.add_argument("--job-attempts", type=int, default=1, metavar="N",
                         help="attempts per job before a deadline expiry is "
                              "terminal (default: 1)")
    p_serve.add_argument("--degraded-window", type=float, default=30.0,
                         metavar="S",
                         help="how long a watchdog incident keeps /readyz "
                              "reporting degraded (default: 30)")
    p_serve.add_argument("--infra-faults", default=None, metavar="PLAN",
                         help="inject infrastructure faults into the service "
                              "(chaos testing): same spec language as "
                              "`campaign --infra-faults`, e.g. "
                              "svc-hang=1.0,svc-hang-s=60,seed=1")
    p_serve.add_argument("--access-log", default=None, metavar="FILE",
                         help="append one JSONL record per HTTP request and "
                              "per terminal job, each carrying its trace_id "
                              "(see docs/service.md)")
    p_serve.add_argument("--spans", default=None, metavar="FILE",
                         help="append every executed job's telemetry spans "
                              "as JSONL, tagged with trace_id and job_id "
                              "(joinable against --access-log)")
    _add_common(p_serve, with_telemetry=False)

    p_loadgen = sub.add_parser(
        "loadgen", help="drive a live service and check it against an SLO"
    )
    p_loadgen.add_argument("--url", required=True,
                           help="base URL of a running `drbw serve`")
    p_loadgen.add_argument("--mode", choices=("closed", "open", "sweep"),
                           default="closed",
                           help="closed: fixed concurrency; open: fixed "
                                "arrival rate (--rps); sweep: one closed run "
                                "per --concurrency level with knee detection "
                                "(default: closed)")
    p_loadgen.add_argument("--concurrency", default="4", metavar="N[,N...]",
                           help="worker count (closed), or comma-separated "
                                "sweep levels (default: 4)")
    p_loadgen.add_argument("--rps", type=float, default=10.0, metavar="R",
                           help="open-loop target arrivals/second "
                                "(default: 10)")
    p_loadgen.add_argument("--duration", type=float, default=10.0, metavar="S",
                           help="seconds per run (default: 10)")
    p_loadgen.add_argument("--timeout", type=float, default=30.0, metavar="S",
                           help="per-request round-trip deadline (default: 30)")
    p_loadgen.add_argument("--benchmark", default="NW",
                           help="benchmark for the probe job spec "
                                "(default: NW)")
    p_loadgen.add_argument("--input", default=None,
                           help="benchmark input (default: largest)")
    p_loadgen.add_argument("--config", default="T4-N2", metavar="Tt-Nn",
                           help="probe job configuration (default: T4-N2)")
    p_loadgen.add_argument("--kind", choices=("profile", "detect", "diagnose"),
                           default="profile",
                           help="probe job kind (default: profile; detect/"
                                "diagnose need --model readable by the "
                                "server)")
    p_loadgen.add_argument("--model", default=None, metavar="FILE",
                           help="server-side model path for detect/diagnose "
                                "probe jobs")
    p_loadgen.add_argument("--seed", type=int, default=0,
                           help="base probe job seed (default: 0)")
    p_loadgen.add_argument("--same-job", action="store_true",
                           help="submit the identical spec every time "
                                "(exercises the coalescer and warm cache); "
                                "default varies the seed per request so "
                                "every request is real work")
    p_loadgen.add_argument("--slo", default=None, metavar="SPEC.json",
                           help="SLO spec file; the run exits 1 when any "
                                "target is breached")
    p_loadgen.add_argument("--report", default=None, metavar="OUT.json",
                           help="write the drbw-slo-report artifact here")
    _add_common(p_loadgen, with_telemetry=False)

    p_report = sub.add_parser(
        "report", help="render the dashboard for a telemetry artifact"
    )
    p_report.add_argument("artifact", help="artifact directory from --telemetry")
    p_report.add_argument("--stages", action="store_true",
                          help="print only the per-stage wall/CPU share "
                               "table aggregated from the artifact's spans")
    _add_common(p_report, with_telemetry=False)

    sub.add_parser("list", help="list benchmarks and inputs")
    return parser


def _setup_logging(args) -> None:
    verbosity = getattr(args, "verbose", 0) - getattr(args, "quiet", 0)
    if verbosity >= 2:
        level = logging.DEBUG
    elif verbosity == 1:
        level = logging.INFO
    elif verbosity < 0:
        level = logging.ERROR
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_or_train(model_path: str | None, seed: int, machine: Machine) -> DrBwClassifier:
    if model_path:
        return DrBwClassifier.load(model_path)
    print("no --model given; training on the mini-programs ...", file=sys.stderr)
    clf, _ = train_default_classifier(machine, seed=seed)
    return clf


def _resolve_benchmark(args) -> tuple:
    try:
        spec = BENCHMARKS[args.benchmark]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {args.benchmark!r}; try `list`"
        ) from None
    inp = args.input or spec.inputs[-1]
    if inp not in spec.inputs:
        raise ConfigError(f"{spec.name} has inputs {spec.inputs}, not {inp!r}")
    return spec, inp


def _profiler_config(args) -> ProfilerConfig:
    if not getattr(args, "faults", None):
        return ProfilerConfig()
    plan = parse_fault_plan(args.faults)
    # Under lossy collection, retry channels that came back below the
    # classifier's support floor (see docs/robustness.md).
    from repro.core.classifier import MIN_CHANNEL_SUPPORT

    return ProfilerConfig(
        faults=plan,
        resample_floor=MIN_CHANNEL_SUPPORT,
        resample_attempts=3,
    )


# -- commands ---------------------------------------------------------------------


def cmd_train(args) -> int:
    machine = Machine()
    tel = telemetry.Telemetry(enabled=args.telemetry is not None)
    with telemetry.session(tel):
        clf, instances = train_default_classifier(
            machine, seed=args.seed, jobs=getattr(args, "jobs", None)
        )
        X, y = training_matrix(list(instances))
        cv = cross_validate(clf, X, y, k=10, seed=args.seed)
    print(f"trained on {len(instances)} runs; 10-fold CV accuracy {cv.accuracy:.1%}")
    print(clf.render_tree())
    with open(args.model, "w") as fh:
        json.dump(clf.to_dict(), fh, indent=2)
    print(f"model saved to {args.model}")
    if args.telemetry:
        meta = collect_metadata("train", args.seed, machine.topology,
                                model=args.model)
        results = {
            "cv_accuracy": cv.accuracy,
            "n_instances": len(instances),
        }
        export_artifact(args.telemetry, tel, meta, results)
        print(f"telemetry artifact written to {args.telemetry}", file=sys.stderr)
    return 0


def cmd_detect(args, want_diagnosis: bool = False) -> int:
    if getattr(args, "json", False):
        return _cmd_detect_json(args, want_diagnosis)
    # Validate everything cheap (benchmark, config, fault plan) before the
    # expensive model load/train.
    spec, inp = _resolve_benchmark(args)
    cfg = config_by_name(args.config)
    profiler_cfg = _profiler_config(args)
    machine = Machine()
    tel = telemetry.Telemetry(enabled=args.telemetry is not None)
    diagnosis = None
    with telemetry.session(tel):
        clf = _load_or_train(args.model, args.seed, machine)

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
            "channel_verdicts": _verdicts_payload(verdicts),
            "case_verdict": verdict.value,
            "degradation": _degradation_payload(profile.dropped),
            "diagnosis": _diagnosis_payload(diagnosis) if diagnosis else None,
        }
        export_artifact(args.telemetry, tel, meta, results)
        print(f"telemetry artifact written to {args.telemetry}", file=sys.stderr)
    return 0 if verdict is Mode.GOOD else 2


def _cmd_detect_json(args, want_diagnosis: bool) -> int:
    """``--json``: run the job exactly as the service would and print its
    canonical bytes.  One executor, two transports — that is the whole
    byte-identity guarantee."""
    from repro.parallel.seeding import canonical_json
    from repro.service.jobspec import execute_job

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


def cmd_serve(args) -> int:
    from repro.service.mpserve import ServiceSupervisor, WorkerConfig, serve_worker

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


def _parse_hysteresis(spec: str | None):
    from repro.monitor import HysteresisConfig

    if spec is None:
        return HysteresisConfig()
    try:
        n, m = spec.split("/")
        return HysteresisConfig(confirm=int(n), window=int(m))
    except ValueError as exc:
        raise ConfigError(
            f"cannot parse hysteresis {spec!r}; expected N/M, e.g. 2/3"
        ) from exc


def _load_rules(path: str | None):
    from repro.errors import MonitorError
    from repro.monitor import DEFAULT_ALERT_RULES, parse_alert_rules

    if path is None:
        return DEFAULT_ALERT_RULES
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise MonitorError(f"cannot read alert rules file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MonitorError(f"alert rules file {path} is not JSON: {exc}") from exc
    return parse_alert_rules(spec)


def cmd_monitor(args) -> int:
    import contextlib

    from repro.monitor import (
        EventLog,
        LiveMonitor,
        MetricsServer,
        MonitorConfig,
        make_monitor_demo_workload,
        render_monitor_frame,
        render_prometheus,
        render_window_line,
    )
    from repro.monitor.monitor import DEFAULT_INTERVAL_CYCLES

    # Validate everything cheap before the expensive model load/train.
    if args.benchmark == "demo":
        spec, inp, workload = None, "builtin", make_monitor_demo_workload()
    else:
        spec, inp = _resolve_benchmark(args)
        workload = None  # built after validation below
    cfg = config_by_name(args.config)
    profiler_cfg = _profiler_config(args)
    monitor_cfg = MonitorConfig(
        window_intervals=args.window,
        hysteresis=_parse_hysteresis(args.hysteresis),
        rules=_load_rules(args.rules),
        interval_cycles=args.interval or DEFAULT_INTERVAL_CYCLES,
    )
    if workload is None:
        workload = spec.build(inp)
    name = spec.name if spec else "demo"

    machine = Machine()
    tel = telemetry.Telemetry(enabled=args.telemetry is not None)
    live = sys.stdout.isatty() and not args.plain
    with telemetry.session(tel), contextlib.ExitStack() as stack:
        clf = _load_or_train(args.model, args.seed, machine)
        event_log = (
            stack.enter_context(EventLog(args.events)) if args.events else None
        )

        def on_window(snapshot) -> None:
            if live:
                # Home the cursor and clear below: a flicker-free redraw.
                sys.stdout.write("\x1b[H\x1b[J" + render_monitor_frame(monitor))
            else:
                sys.stdout.write(render_window_line(snapshot) + "\n")
            sys.stdout.flush()

        monitor = LiveMonitor(
            clf,
            machine.topology,
            config=monitor_cfg,
            event_log=event_log,
            on_window=on_window,
        )
        if args.serve is not None:
            server = stack.enter_context(
                MetricsServer(lambda: render_prometheus(monitor.metrics),
                              port=args.serve)
            )
            print(f"serving metrics at {server.url}", file=sys.stderr)
        if live:
            sys.stdout.write("\x1b[2J")  # start from a clean screen

        profile = DrBwProfiler(machine, profiler_cfg).profile_live(
            workload, cfg.n_threads, cfg.n_nodes, monitor=monitor, seed=args.seed
        )

    if live:
        print()  # leave the last frame on screen
    windows = monitor.window_index + 1
    rmc_windows = sorted({t.window_index for t in monitor.transitions
                          if t.status is Mode.RMC})
    print(f"{name} ({inp}) under {cfg.name}: {windows} windows, "
          f"{monitor.windows.n_samples} samples in the final window")
    if profiler_cfg.faults is not None:
        print(format_degradation(profile.dropped))
    if monitor.ever_rmc:
        chans = ", ".join(sorted({str(t.channel) for t in monitor.transitions
                                  if t.status is Mode.RMC}))
        print(f"contention detected on {chans} "
              f"(first rmc window: {rmc_windows[0]})")
    else:
        print("no contention detected")

    if args.telemetry:
        meta = collect_metadata(
            "monitor", args.seed, machine.topology,
            faults=profiler_cfg.faults, benchmark=name, input=inp,
            config=cfg.name,
        )
        results = {
            "windows": windows,
            "ever_rmc": monitor.ever_rmc,
            "statuses": {str(c): m.value for c, m in monitor.statuses.items()},
            "transitions": len(monitor.transitions),
            "alert_events": [
                {"rule": e.rule, "kind": e.kind, "severity": e.severity,
                 "channel": str(e.channel) if e.channel else None,
                 "window": e.window_index}
                for e in monitor.alert_events
            ],
        }
        export_artifact(args.telemetry, tel, meta, results)
        print(f"telemetry artifact written to {args.telemetry}", file=sys.stderr)
    return 2 if monitor.ever_rmc else 0


def _load_fleet_rules(path: str | None):
    from repro.errors import FleetError
    from repro.fleet import DEFAULT_FLEET_RULES, parse_fleet_rules

    if path is None:
        return DEFAULT_FLEET_RULES
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise FleetError(f"cannot read fleet rules file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FleetError(f"fleet rules file {path} is not JSON: {exc}") from exc
    return parse_fleet_rules(spec)


def cmd_fleet(args) -> int:
    import contextlib
    import threading
    import time

    from repro.errors import FleetError
    from repro.fleet import (
        FleetAggregator,
        FleetServer,
        FleetSpec,
        WireLog,
        read_wire,
        render_epoch_line,
        render_fleet_frame,
        run_fleet,
    )
    from repro.parallel.seeding import canonical_json

    # Validate everything cheap before the expensive model load/train.
    rules = _load_fleet_rules(args.rules)
    if args.replay is not None and args.events:
        raise FleetError("--events records a live run; drop it with --replay")
    if args.serve_hold and args.serve is None:
        raise FleetError("--serve-hold needs --serve")
    spec = None
    if args.replay is None:
        spec = FleetSpec(
            machines=args.machines,
            seed=args.seed,
            config=args.config,
            contend_fraction=args.contend_fraction,
            faults=args.faults,
            faulted_fraction=args.faulted_fraction,
            window_intervals=args.window,
            interval_cycles=args.interval or 4e6,
            accesses_per_thread=args.accesses,
            fleet=args.fleet_tag,
        )
    aggregator = FleetAggregator(
        rules=rules, top_k=args.topk, fleet=args.fleet_tag
    )
    live = sys.stdout.isatty() and not args.plain and args.replay is None

    summaries = None
    with contextlib.ExitStack() as stack:
        if args.serve is not None:
            server = stack.enter_context(FleetServer(aggregator, port=args.serve))
            print(f"serving fleet endpoints at {server.url}", file=sys.stderr)
        if args.replay is not None:
            # Fix the roster before ingesting: without it, epochs would
            # evaluate before late machines say hello and their buffered
            # windows for already-closed epochs would be dropped —
            # replay must derive exactly what the live run derived.
            records = list(read_wire(args.replay))
            roster = {
                r["machine_id"] for r in records if r["kind"] == "fleet_hello"
            }
            if not roster:
                raise FleetError(
                    f"replay {args.replay} has no fleet_hello records; "
                    "is it a wire recording?"
                )
            aggregator.expected_machines = len(roster)
            for snap in aggregator.ingest_many(records):
                if not live:
                    print(render_epoch_line(snap))
        else:
            clf = _load_or_train(args.model, args.seed, Machine())
            wire = (
                stack.enter_context(
                    WireLog(
                        args.events,
                        max_bytes=(
                            args.events_max_kb * 1024
                            if args.events_max_kb
                            else None
                        ),
                    )
                )
                if args.events
                else None
            )
            # Completed epochs surface from whichever worker ingested the
            # closing record, so rendering needs its own serialisation.
            paint = threading.Lock()

            def on_snapshot(snap) -> None:
                with paint:
                    if live:
                        sys.stdout.write(
                            "\x1b[H\x1b[J" + render_fleet_frame(aggregator)
                        )
                    else:
                        sys.stdout.write(render_epoch_line(snap) + "\n")
                    sys.stdout.flush()

            if live:
                sys.stdout.write("\x1b[2J")
            summaries = run_fleet(
                spec,
                clf,
                aggregator,
                wire_sink=wire.append if wire else None,
                jobs=args.jobs,
                on_snapshot=on_snapshot,
            )

        if live:
            print()  # leave the last frame on screen
        rollup = aggregator.rollup()
        counts = rollup["counts"]
        print(
            f"fleet {aggregator.fleet}: {counts['machines']} machines, "
            f"{aggregator.epochs} epochs, "
            f"{counts['machine_windows']} machine-windows"
        )
        if summaries is not None:
            contend = sum(1 for s in summaries if s.workload == "contend")
            print(
                f"workloads: {contend} contend, {len(summaries) - contend} "
                f"quiet; machine-local rmc on "
                f"{sum(1 for s in summaries if s.ever_rmc)}"
            )
        top = aggregator.top_channels()
        if top:
            print(
                "top contended channels: "
                + ", ".join(
                    f"{e['channel']} ({e['rmc_machine_windows']} "
                    "rmc machine-windows)"
                    for e in top
                )
            )
        fired = [e for e in aggregator.alert_events if e.kind == "firing"]
        resolved = [e for e in aggregator.alert_events if e.kind == "resolved"]
        print(
            f"fleet alerts: {len(fired)} fired, {len(resolved)} resolved, "
            f"{len(aggregator.firing())} still firing"
        )
        if aggregator.ever_fleet_rmc:
            print("fleet-level bandwidth contention detected")
        else:
            print("no fleet-level contention detected")

        if args.timeline:
            events = aggregator.timeline_events()
            with open(args.timeline, "w") as fh:
                fh.write(canonical_json({"traceEvents": events}) + "\n")
            print(
                f"timeline ({len(events)} events) written to {args.timeline}",
                file=sys.stderr,
            )
        if args.rollup:
            with open(args.rollup, "w") as fh:
                fh.write(canonical_json(rollup) + "\n")
            print(f"rollup written to {args.rollup}", file=sys.stderr)

        if args.serve is not None and args.serve_hold:
            print(
                "fleet endpoints held open; Ctrl-C to stop", file=sys.stderr
            )
            while True:  # KeyboardInterrupt lands in main() -> exit 130
                time.sleep(3600)
    return 2 if aggregator.ever_fleet_rmc else 0


def cmd_campaign(args) -> int:
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
    from repro.parallel import CampaignJournal, ResultCache, resolve_jobs

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


def _loadgen_job_factory(args):
    """The probe-job spec factory for ``drbw loadgen``.

    Returns ``f(k) -> spec`` for request index ``k``.  Unless
    ``--same-job`` is set, the seed varies per request so every request
    is a distinct job (distinct ``job_key``), defeating the coalescer
    and the warm cache — the load hits the real execution path.  The
    seed counter is shared across the whole invocation, not per run:
    sweep levels must not re-submit the previous level's specs, or a
    caching server would answer them warm and the sweep would measure
    the cache instead of execution.
    """
    import itertools

    spec_bench, inp = _resolve_benchmark(args)
    cfg = config_by_name(args.config)
    if args.kind == "profile":
        from repro.parallel.shards import benchmark_workload_spec, profile_shard

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
    from repro.slo import (
        build_report,
        concurrency_sweep,
        load_slo_spec,
        render_report,
        run_closed_loop,
        run_open_loop,
    )

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


def cmd_report(args) -> int:
    artifact = load_artifact(args.artifact)
    if args.stages:
        print(render_stage_table(artifact.spans))
        return 0
    print(render_dashboard(artifact))
    return 0


def cmd_list(_args) -> int:
    print(f"{'benchmark':<15}{'suite':<10}{'class':<6} inputs")
    for name, spec in sorted(BENCHMARKS.items()):
        print(f"{name:<15}{spec.suite:<10}{spec.paper_class:<6} "
              f"{', '.join(spec.inputs)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args)
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "detect":
            return cmd_detect(args, want_diagnosis=False)
        if args.command == "diagnose":
            return cmd_detect(args, want_diagnosis=True)
        if args.command == "campaign":
            return cmd_campaign(args)
        if args.command == "monitor":
            return cmd_monitor(args)
        if args.command == "fleet":
            return cmd_fleet(args)
        if args.command == "serve":
            return cmd_serve(args)
        if args.command == "loadgen":
            return cmd_loadgen(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "list":
            return cmd_list(args)
    except ReproError as exc:
        print(f"drbw: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Campaign/monitor runs leave their journals and caches in a
        # resumable state on the way out; 130 = killed by SIGINT.
        print("drbw: interrupted", file=sys.stderr)
        return 130
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
