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

This module holds only the argument parser and a dispatch table
(:data:`COMMANDS`) mapping each command to the function that runs it in
:mod:`repro.commands`; :func:`main` imports that one module when its
command runs.  Importing the CLI therefore loads neither numpy nor the
pipeline, and ``list`` never does.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import sys

from repro.errors import ReproError

__all__ = ["main", "build_parser", "COMMANDS"]

#: Command -> (module, function).  :func:`main` imports the module only
#: when its command runs.
COMMANDS: dict[str, tuple[str, str]] = {
    "train": ("repro.commands.train", "cmd_train"),
    "detect": ("repro.commands.detect", "cmd_detect"),
    "diagnose": ("repro.commands.detect", "cmd_diagnose"),
    "campaign": ("repro.commands.campaign", "cmd_campaign"),
    "monitor": ("repro.commands.monitor", "cmd_monitor"),
    "fleet": ("repro.commands.fleet", "cmd_fleet"),
    "serve": ("repro.commands.serve", "cmd_serve"),
    "loadgen": ("repro.commands.loadgen", "cmd_loadgen"),
    "report": ("repro.commands.report", "cmd_report"),
    "list": ("repro.commands.listing", "cmd_list"),
}

#: The names of :data:`repro.faults.FAULT_PRESETS` and
#: :data:`repro.faults.INFRA_PRESETS`, for the help text: importing
#: :mod:`repro.faults` would load numpy and the engine just to build the
#: parser.  ``tests/test_cli_imports.py`` keeps them in sync.
FAULT_PRESET_NAMES = ("none", "light", "standard", "heavy")
INFRA_PRESET_NAMES = ("none", "chaos-standard", "chaos-heavy")

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
                             f"({', '.join(INFRA_PRESET_NAMES)}) or key=value "
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
                            f"({', '.join(FAULT_PRESET_NAMES)}) or key=value pairs, "
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
                            f"({', '.join(FAULT_PRESET_NAMES)}) or key=value pairs")
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
                              f"a preset ({', '.join(FAULT_PRESET_NAMES)}) or "
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args)
    module, function = COMMANDS[args.command]
    try:
        return getattr(importlib.import_module(module), function)(args)
    except ReproError as exc:
        print(f"drbw: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Campaign/monitor runs leave their journals and caches in a
        # resumable state on the way out; 130 = killed by SIGINT.
        print("drbw: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
