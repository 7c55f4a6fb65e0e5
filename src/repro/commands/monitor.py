"""``drbw monitor``: profile a benchmark (or the built-in ``demo``
workload) with live contention monitoring."""

from __future__ import annotations

import contextlib
import json
import sys

from repro import telemetry
from repro.commands.common import load_or_train, profiler_config, resolve_benchmark
from repro.core.profiler import DrBwProfiler
from repro.core.report import format_degradation
from repro.errors import ConfigError, MonitorError
from repro.eval.configs import config_by_name
from repro.monitor.alerts import DEFAULT_ALERT_RULES, parse_alert_rules
from repro.monitor.dashboard import render_monitor_frame, render_window_line
from repro.monitor.demo import make_monitor_demo_workload
from repro.monitor.detector import HysteresisConfig
from repro.monitor.events import EventLog
from repro.monitor.exposition import render_prometheus
from repro.monitor.httpserver import MetricsServer
from repro.monitor.monitor import DEFAULT_INTERVAL_CYCLES, LiveMonitor, MonitorConfig
from repro.numasim.machine import Machine
from repro.telemetry.artifact import collect_metadata, export_artifact
from repro.types import Mode


def _parse_hysteresis(spec: str | None) -> HysteresisConfig:
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
    # Validate everything cheap before the expensive model load/train.
    if args.benchmark == "demo":
        spec, inp, workload = None, "builtin", make_monitor_demo_workload()
    else:
        spec, inp = resolve_benchmark(args)
        workload = None  # built after validation below
    cfg = config_by_name(args.config)
    profiler_cfg = profiler_config(args)
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
        clf = load_or_train(args.model, args.seed, machine)
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
