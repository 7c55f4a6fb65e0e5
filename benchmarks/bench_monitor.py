"""Live-monitor acceptance benchmarks: online/batch agreement + overhead.

Two numbers gate the streaming subsystem (ISSUE 3):

* **Agreement** — the online sliding-window verdicts must agree with the
  post-hoc batch classifier on >= 95% of channel-windows.  Checked by
  replaying every window's raw interval samples through the batch
  extractor + classifier and comparing against the verdict the monitor
  actually emitted for that window.
* **Overhead** — monitor-enabled runs (``profile_live`` + LiveMonitor)
  must add < 5% wall time over plain ``profile`` on the Table VII pass,
  measured interleaved min-of-3.

Both land in ``benchmarks/results/`` as text + JSON.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from _util import save_and_print
from repro.core.features import SampleSet, extract_channel_features
from repro.core.profiler import DrBwProfiler
from repro.errors import InsufficientSamplesError
from repro.eval.configs import RunConfig
from repro.eval.experiments import TABLE7_BENCHMARKS
from repro.monitor import LiveMonitor, MonitorConfig
from repro.numasim.machine import Machine
from repro.workloads.suites.registry import BENCHMARKS

#: Workload mix for the agreement pass: the Table VII contended set plus
#: two firmly-good codes, so both verdict classes appear in the tally.
AGREEMENT_MIX: tuple[tuple[str, str], ...] = TABLE7_BENCHMARKS + (
    ("Blackscholes", "native"),
    ("EP", "C"),
)

AGREEMENT_CONFIG = RunConfig(32, 4)
OVERHEAD_CONFIG = RunConfig(64, 4)
OVERHEAD_REPETITIONS = 3


class AgreementMonitor(LiveMonitor):
    """A LiveMonitor that re-derives every window verdict the slow way.

    Keeps the raw per-interval sample fields for the current window,
    rebuilds a :class:`SampleSet` over exactly those samples after each
    window, and runs the batch extractor + classifier on it — the
    ground truth the incremental path promises to match.
    """

    def __init__(self, classifier, topology, config):
        super().__init__(classifier, topology, config)
        self._classifier = classifier
        self._frames = deque(maxlen=config.window_intervals)
        self.agreed = 0
        self.compared = 0

    def observe_interval(self, record, fields, observed=0, quarantined=0):
        self._frames.append(fields)
        snapshot = super().observe_interval(
            record, fields, observed=observed, quarantined=quarantined
        )
        merged = {
            key: np.concatenate([f[key] for f in self._frames])
            for key in self._frames[0]
        }
        # Streamed fields carry no object ids, and Table I never reads them.
        samples = SampleSet.from_arrays(
            **merged, object_id=np.full(merged["address"].shape, -1, dtype=np.int64)
        )
        for channel, view in snapshot.channels.items():
            try:
                features = extract_channel_features(
                    samples, channel, min_samples=self.config.min_support
                )
            except InsufficientSamplesError:
                continue
            batch = self._classifier.classify_channel_detailed(
                features, min_support=self.config.min_support
            )
            online = view.verdict
            self.compared += 1
            if batch.insufficient_data or online.insufficient_data:
                self.agreed += batch.insufficient_data == online.insufficient_data
            else:
                self.agreed += batch.mode is online.mode
        return snapshot


def test_monitor_agreement(benchmark, results_dir, trained_classifier):
    clf, _ = trained_classifier
    machine = Machine()
    profiler = DrBwProfiler(machine)

    def run():
        rows = []
        for name, inp in AGREEMENT_MIX:
            monitor = AgreementMonitor(
                clf, machine.topology, MonitorConfig(window_intervals=4)
            )
            profiler.profile_live(
                BENCHMARKS[name].build(inp),
                AGREEMENT_CONFIG.n_threads,
                AGREEMENT_CONFIG.n_nodes,
                monitor=monitor,
                seed=0,
            )
            rows.append((name, monitor.agreed, monitor.compared))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    agreed = sum(a for _, a, _ in rows)
    compared = sum(c for _, _, c in rows)
    agreement = agreed / compared if compared else 0.0
    lines = [
        "online vs batch verdict agreement per channel-window "
        f"(W=4, {AGREEMENT_CONFIG.name}):",
        f"{'Code':<15}{'agreed':>8}{'windows':>9}{'rate':>8}",
    ]
    for name, a, c in rows:
        rate = a / c if c else 1.0
        lines.append(f"{name:<15}{a:>8}{c:>9}{rate:>7.1%}")
    lines.append(f"{'total':<15}{agreed:>8}{compared:>9}{agreement:>7.1%}")
    save_and_print(
        results_dir, "monitor_agreement", "\n".join(lines),
        data={
            "agreement": agreement,
            "channel_windows": compared,
            "per_benchmark": {
                name: {"agreed": a, "compared": c} for name, a, c in rows
            },
        },
    )
    assert compared > 100, "too few channel-windows to call this a measurement"
    # The acceptance bar from ISSUE 3.
    assert agreement >= 0.95


def test_monitor_overhead(benchmark, results_dir, trained_classifier):
    clf, _ = trained_classifier
    machine = Machine()
    profiler = DrBwProfiler(machine)
    workloads = [(name, BENCHMARKS[name].build(inp)) for name, inp in TABLE7_BENCHMARKS]

    def run():
        batch_best: dict[str, float] = {}
        live_best: dict[str, float] = {}
        samples: dict[str, int] = {}
        # Interleave batch/live within each repetition so scheduler noise
        # hits both sides alike; keep the per-benchmark minimum.
        for _ in range(OVERHEAD_REPETITIONS):
            for name, workload in workloads:
                t0 = time.perf_counter()
                profile = profiler.profile(
                    workload, OVERHEAD_CONFIG.n_threads,
                    OVERHEAD_CONFIG.n_nodes, seed=0,
                )
                batch_best[name] = min(
                    batch_best.get(name, float("inf")), time.perf_counter() - t0
                )
                samples[name] = len(profile.sample_set)
                monitor = LiveMonitor(clf, machine.topology, MonitorConfig())
                t0 = time.perf_counter()
                profiler.profile_live(
                    workload, OVERHEAD_CONFIG.n_threads,
                    OVERHEAD_CONFIG.n_nodes, monitor=monitor, seed=0,
                )
                live_best[name] = min(
                    live_best.get(name, float("inf")), time.perf_counter() - t0
                )
        return batch_best, live_best, samples

    wall_start = time.perf_counter()
    batch_best, live_best, samples = benchmark.pedantic(run, rounds=1, iterations=1)
    wall_time = time.perf_counter() - wall_start

    total_batch = sum(batch_best.values())
    total_live = sum(live_best.values())
    overhead = total_live / total_batch - 1.0
    total_samples = sum(samples.values())
    samples_per_sec = total_samples / total_batch if total_batch else 0.0

    lines = [
        "monitor-enabled (profile_live) vs batch (profile) wall time, "
        f"min of {OVERHEAD_REPETITIONS} interleaved runs ({OVERHEAD_CONFIG.name}):",
        f"{'Code':<15}{'batch (s)':>11}{'live (s)':>11}{'added':>9}",
    ]
    for name, _ in TABLE7_BENCHMARKS:
        added = live_best[name] / batch_best[name] - 1.0
        lines.append(
            f"{name:<15}{batch_best[name]:>11.3f}{live_best[name]:>11.3f}"
            f"{added * 100:>+8.1f}%"
        )
    lines.append(
        f"{'aggregate':<15}{total_batch:>11.3f}{total_live:>11.3f}"
        f"{overhead * 100:>+8.1f}%"
    )
    lines.append(f"(budget: <5% added wall time; "
                 f"throughput {samples_per_sec:,.0f} samples/s)")
    save_and_print(
        results_dir, "monitor_overhead", "\n".join(lines),
        data={
            "overhead_fraction": overhead,
            "batch_seconds": batch_best,
            "live_seconds": live_best,
            "samples": samples,
            "samples_per_sec": samples_per_sec,
            "wall_time_s": wall_time,
            "repetitions": OVERHEAD_REPETITIONS,
        },
    )
    # The acceptance bar from ISSUE 3: streaming adds <5% wall time.
    assert overhead < 0.05, f"monitoring added {overhead:.1%} wall time"
