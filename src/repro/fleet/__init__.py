"""Fleet observability: many simulated machines, one control plane.

DR-BW's detector is meant to watch real fleets; this package scales the
single-machine live monitor (:mod:`repro.monitor`) to tens-to-hundreds
of concurrently simulated machines.  Each machine streams per-window
Table-I features and verdicts as wire records (:mod:`~repro.fleet.wire`)
— in-process, over HTTP push (:mod:`~repro.fleet.http`), or into a
rotating JSONL file for offline replay — keyed by a stable identity
(:mod:`~repro.fleet.identity`).  The central
:class:`~repro.fleet.aggregator.FleetAggregator` turns the streams into
per-epoch rollups, deterministic top-K contended channels, fleet-scoped
alerts (:mod:`~repro.fleet.alerts`), NUMAscope-style multi-resolution
retention (:mod:`~repro.fleet.retention`), a cross-machine Chrome-trace
timeline, and a labelled Prometheus exposition.  ``drbw fleet`` wires it
to the simulator-backed fleet runner (:mod:`~repro.fleet.sim`) and a
terminal dashboard (:mod:`~repro.fleet.dashboard`).

Everything derived is byte-deterministic for a given (seed, machine
count, fault mix), regardless of ingest arrival order or worker
concurrency — see the aggregator's module docstring for the epoch
discipline that guarantees it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.fleet.aggregator": (
        "FLEET_ROLLUP_SCHEMA",
        "FleetAggregator",
        "FleetChannelAgg",
        "FleetSnapshot",
        "parse_channel",
    ),
    "repro.fleet.alerts": (
        "DEFAULT_FLEET_RULES",
        "FLEET_CHANNEL_SIGNALS",
        "FLEET_GLOBAL_SIGNALS",
        "FleetAlertEngine",
        "FleetAlertRule",
        "parse_fleet_rules",
    ),
    "repro.fleet.dashboard": ("render_epoch_line", "render_fleet_frame"),
    "repro.fleet.http": ("FleetClient", "FleetServer"),
    "repro.fleet.identity": ("MachineIdentity",),
    "repro.fleet.retention": (
        "RetentionConfig",
        "RetentionPoint",
        "RetentionSeries",
    ),
    "repro.fleet.sim": (
        "FleetSpec",
        "MachineSpec",
        "MachineSummary",
        "machine_specs",
        "make_quiet_workload",
        "run_fleet",
        "simulate_machine",
    ),
    "repro.fleet.wire": (
        "WIRE_KINDS",
        "MachineFeed",
        "WireLog",
        "read_wire",
        "validate_wire_record",
    ),
})
