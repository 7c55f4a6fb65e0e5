"""Fleet control-plane acceptance benchmarks: ingest rate + overhead.

Two numbers gate the fleet subsystem:

* **Ingest throughput** — how many machine-windows per second one
  aggregator absorbs from synthetic wire streams, with the shuffled
  ingest re-checked for byte-identical rollups (the determinism contract
  must hold at benchmark scale, not just in unit tests).
* **Per-machine overhead** — the fleet plane (wire-record building +
  aggregator ingest + epoch evaluation) must cost < 5% of what the
  machine already spends simulating under its solo LiveMonitor.  Naive
  solo-vs-fleet wall-clock subtraction cannot resolve a few percent on
  a noisy shared host (±6% run-to-run), so the plane is measured where
  it runs: every ``ingest`` call is timed inside the fleet run, the
  record-building cost is micro-timed on a real captured window, and
  the ratio against the remaining (pure simulation) time is asserted.

Both land in ``benchmarks/results/`` as text + JSON.
"""

from __future__ import annotations

import gc
import random
import time

from _util import save_and_print
from repro.core.profiler import DrBwProfiler
from repro.eval.configs import config_by_name
from repro.fleet.aggregator import FleetAggregator
from repro.fleet.identity import MachineIdentity
from repro.fleet.sim import FleetSpec, machine_specs, run_fleet
from repro.fleet.wire import MachineFeed
from repro.monitor import LiveMonitor, MonitorConfig
from repro.monitor.demo import make_monitor_demo_workload
from repro.numasim.machine import Machine
from repro.parallel.seeding import canonical_json
from repro.telemetry.artifact import topology_hash

INGEST_MACHINES = 40
INGEST_WINDOWS = 30
INGEST_CHANNELS = ("1->0", "2->0", "3->1")

OVERHEAD_MACHINES = 5
OVERHEAD_ACCESSES = 2_500_000.0
OVERHEAD_REPETITIONS = 3


def _synthetic_streams() -> dict[str, list[dict]]:
    """INGEST_MACHINES full wire streams with a contended middle act."""
    streams: dict[str, list[dict]] = {}
    for i in range(INGEST_MACHINES):
        mid = f"m{i:03d}"
        hot_windows = range(8, 22) if i % 3 == 0 else ()
        records = [
            {
                "v": 1, "seq": 0, "kind": "fleet_hello", "machine_id": mid,
                "identity": {
                    "machine_id": mid, "topology": "topo-bench",
                    "workload": "contend" if i % 3 == 0 else "quiet",
                    "config": "T8-N2", "seed": i,
                },
                "n_nodes": 4,
            }
        ]
        for w in range(INGEST_WINDOWS):
            hot = w in hot_windows
            records.append(
                {
                    "v": 1, "seq": w + 1, "kind": "fleet_window",
                    "machine_id": mid, "window": w,
                    "end_cycle": 4e6 * (w + 1), "n_samples": 900 + w,
                    "quarantine_rate": 0.0,
                    "channels": {
                        tag: {
                            "share": 0.55 if hot else 0.08,
                            "latency": 310.0 if hot else 120.0,
                            "status": "rmc" if hot else "good",
                            "label": "rmc" if hot else "good",
                            "confidence": 0.9, "n_remote": 70,
                        }
                        for tag in INGEST_CHANNELS
                    },
                    "rmc": list(INGEST_CHANNELS) if hot else [],
                }
            )
        records.append(
            {
                "v": 1, "seq": INGEST_WINDOWS + 1, "kind": "fleet_bye",
                "machine_id": mid, "windows": INGEST_WINDOWS,
                "samples": 900, "ever_rmc": bool(hot_windows),
                "rmc_channels": sorted(INGEST_CHANNELS) if hot_windows else [],
            }
        )
        streams[mid] = records
    return streams


def _interleave(streams: dict[str, list[dict]], rng=None) -> list[dict]:
    queues = {mid: list(recs) for mid, recs in streams.items()}
    out: list[dict] = []
    while queues:
        for mid in (sorted(queues) if rng is None
                    else [rng.choice(sorted(queues))]):
            out.append(queues[mid].pop(0))
            if not queues[mid]:
                del queues[mid]
    return out


def test_fleet_ingest_throughput(benchmark, results_dir):
    streams = _synthetic_streams()
    ordered = _interleave(streams)
    shuffled = _interleave(streams, rng=random.Random(1))
    machine_windows = INGEST_MACHINES * INGEST_WINDOWS

    def run():
        agg = FleetAggregator(expected_machines=INGEST_MACHINES)
        t0 = time.perf_counter()
        agg.ingest_many(ordered)
        elapsed = time.perf_counter() - t0
        return agg, elapsed

    agg, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    windows_per_sec = machine_windows / elapsed

    # Determinism at benchmark scale: a randomly shuffled arrival order
    # must produce the same rollup bytes.
    agg2 = FleetAggregator(expected_machines=INGEST_MACHINES)
    agg2.ingest_many(shuffled)
    order_independent = canonical_json(agg.rollup()) == canonical_json(
        agg2.rollup()
    )

    lines = [
        f"fleet ingest: {INGEST_MACHINES} machines x {INGEST_WINDOWS} windows "
        f"x {len(INGEST_CHANNELS)} channels",
        f"{machine_windows} machine-windows in {elapsed:.3f}s = "
        f"{windows_per_sec:,.0f} windows/s",
        f"shuffled-order rollup identical: {order_independent}",
    ]
    save_and_print(
        results_dir, "fleet_ingest", "\n".join(lines),
        data={
            "machines": INGEST_MACHINES,
            "windows_per_machine": INGEST_WINDOWS,
            "machine_windows": machine_windows,
            "ingest_seconds": elapsed,
            "ingest_windows_per_sec": windows_per_sec,
            "order_independent": order_independent,
        },
    )
    assert order_independent
    assert agg.epochs == INGEST_WINDOWS
    assert windows_per_sec > 1000, "aggregator ingest is pathologically slow"


class _TimedAggregator(FleetAggregator):
    """A FleetAggregator that accounts every second it costs callers."""

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        self.plane_seconds = 0.0

    def ingest(self, record: dict):
        t0 = time.perf_counter()
        try:
            return super().ingest(record)
        finally:
            self.plane_seconds += time.perf_counter() - t0


def _feed_seconds_per_record(clf, spec) -> float:
    """Micro-time MachineFeed record building on a real window.

    Runs one solo machine capturing its snapshots, then replays
    ``feed.window`` into a black hole many times: the per-record cost of
    building + validating a wire record, without simulation noise.
    """
    ms = machine_specs(spec)[0]
    cfg = config_by_name(ms.config)
    machine = Machine()
    snapshots = []
    monitor = LiveMonitor(
        clf, machine.topology,
        config=MonitorConfig(
            window_intervals=ms.window_intervals,
            interval_cycles=ms.interval_cycles,
            rules=(),
        ),
        on_window=snapshots.append,
    )
    DrBwProfiler(machine).profile_live(
        make_monitor_demo_workload(
            vector_bytes=ms.vector_bytes,
            accesses_per_thread=ms.accesses_per_thread,
            calm_accesses_per_thread=2.0 * ms.accesses_per_thread,
        ),
        cfg.n_threads, cfg.n_nodes, monitor=monitor, seed=ms.seed,
    )
    identity = MachineIdentity(
        machine_id=ms.machine_id, topology=topology_hash(machine.topology),
        workload=ms.workload, config=ms.config, seed=ms.seed,
    )
    snapshot = snapshots[len(snapshots) // 2]  # a steady-state window
    reps = 2000
    best = float("inf")
    for _ in range(5):
        feed = MachineFeed(identity, lambda record: None)
        t0 = time.perf_counter()
        for _ in range(reps):
            feed.window(snapshot)
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def test_fleet_overhead(benchmark, results_dir, trained_classifier):
    clf, _ = trained_classifier
    spec = FleetSpec(
        machines=OVERHEAD_MACHINES,
        seed=5,
        contend_fraction=1.0,  # every machine runs the same contend arc
        accesses_per_thread=OVERHEAD_ACCESSES,
    )

    def fleet_pass() -> tuple[float, float, int]:
        agg = _TimedAggregator()
        t0 = time.perf_counter()
        run_fleet(spec, clf, agg, jobs=1)
        return time.perf_counter() - t0, agg.plane_seconds, agg.records

    def run():
        fleet_pass()  # warm caches untimed
        feed_per_record = _feed_seconds_per_record(clf, spec)
        best = None
        for _ in range(OVERHEAD_REPETITIONS):
            gc.collect()
            wall, ingest_s, records = fleet_pass()
            plane = ingest_s + feed_per_record * records
            sim = wall - plane
            if best is None or plane / sim < best[0]:
                best = (plane / sim, wall, plane, records)
        return best

    overhead, wall, plane, records = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    per_machine_wall = wall / OVERHEAD_MACHINES
    per_machine_plane = plane / OVERHEAD_MACHINES

    lines = [
        f"fleet plane cost, {OVERHEAD_MACHINES} machines (jobs=1), best of "
        f"{OVERHEAD_REPETITIONS} rounds:",
        f"wall {wall:.3f}s  plane {plane * 1000:.2f}ms over {records} "
        f"records  ({per_machine_plane * 1000:.2f}ms of "
        f"{per_machine_wall * 1000:.1f}ms per machine)",
        f"per-machine overhead vs solo monitor: {overhead * 100:+.2f}%  "
        f"(budget: <5%)",
    ]
    save_and_print(
        results_dir, "fleet_overhead", "\n".join(lines),
        data={
            "machines": OVERHEAD_MACHINES,
            "wall_seconds": wall,
            "plane_seconds": plane,
            "records": records,
            "per_machine_wall_seconds": per_machine_wall,
            "per_machine_plane_seconds": per_machine_plane,
            "per_machine_overhead_fraction": overhead,
        },
    )
    # The acceptance bar from the fleet issue.
    assert overhead < 0.05
