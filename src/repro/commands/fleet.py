"""``drbw fleet``: simulate N live-monitored machines streaming into one
fleet aggregator (see ``docs/observability.md``)."""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time

from repro.commands.common import load_or_train
from repro.errors import FleetError
from repro.fleet.aggregator import FleetAggregator
from repro.fleet.alerts import DEFAULT_FLEET_RULES, parse_fleet_rules
from repro.fleet.dashboard import render_epoch_line, render_fleet_frame
from repro.fleet.http import FleetServer
from repro.fleet.sim import FleetSpec, run_fleet
from repro.fleet.wire import WireLog, read_wire
from repro.numasim.machine import Machine
from repro.parallel.seeding import canonical_json


def _load_fleet_rules(path: str | None):
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
            clf = load_or_train(args.model, args.seed, Machine())
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
