"""Shared builder for the profile-digest golden fixture.

Used by ``scripts/regen_goldens.py`` (to write
``tests/golden/profile_digests.json``) and ``tests/test_golden.py`` (to
assert a fresh rebuild equals the checked-in file exactly).

For each pinned case the fixture pins, clean and under the ``standard``
fault plan:

* :meth:`~repro.core.profiler.DrBwProfiler.profile` — a SHA-256 digest
  of the raw bytes of every attributed sample column (object ids
  included) and the quarantine ledger; the faulted runs re-sample thin
  channels, as the faulted Table V sweep does;
* :meth:`~repro.core.profiler.DrBwProfiler.profile_live` — a digest of
  every interval's streamed fields and its observed/quarantined counts,
  a digest of the returned sample columns, and the ledger.

Digests hash ``int64``/``float64`` array bytes, so one changed sample,
one flipped latency bit or one moved quarantine count fails the test.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.profiler import DrBwProfiler, ProfilerConfig
from repro.faults import FAULT_PRESETS
from repro.numasim.machine import Machine
from repro.parallel import canonical_json
from repro.parallel.shards import dropped_to_dict
from repro.workloads.suites.registry import BENCHMARKS

SEED = 11
#: Interval length (cycles) of the live runs.
INTERVAL_CYCLES = 4e6

#: (benchmark, input, threads, nodes): a 2-node and a 4-node binding.
PINNED = (
    ("NW", "small", 16, 2),
    ("AMG2006", "30x30x30", 32, 4),
)
PLANS = ("clean", "standard")
#: Remote-sample floor of the faulted runs: high enough that both cases
#: re-sample some channel.
RESAMPLE_FLOOR = 1100

#: The columns one interval streams into a monitor.
_STREAM_COLS = (
    "address", "cpu", "thread_id", "level", "latency", "src_node", "dst_node",
)
_SAMPLE_COLS = _STREAM_COLS + ("object_id",)


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def _columns(obj, names) -> dict:
    """Hex of each column's raw bytes, from a field dict or a SampleSet."""
    return {
        name: np.ascontiguousarray(
            obj[name] if isinstance(obj, dict) else getattr(obj, name)
        ).tobytes().hex()
        for name in names
    }


class _RecordingMonitor:
    interval_cycles = INTERVAL_CYCLES

    def __init__(self) -> None:
        self.intervals: list[dict] = []

    def observe_interval(self, record, fields, observed=0, quarantined=0):
        self.intervals.append({
            "index": record.index,
            "observed": observed,
            "quarantined": quarantined,
            "fields": _columns(fields, _STREAM_COLS),
        })


def _profile_entry(profile) -> dict:
    return {
        "n_samples": len(profile.sample_set),
        "samples_sha256": _digest(_columns(profile.sample_set, _SAMPLE_COLS)),
        "dropped": dropped_to_dict(profile.dropped),
    }


def build_profile_golden() -> dict:
    machine = Machine()
    cases = []
    for name, inp, t, n in PINNED:
        for plan in PLANS:
            config = ProfilerConfig() if plan == "clean" else ProfilerConfig(
                faults=FAULT_PRESETS[plan], resample_floor=RESAMPLE_FLOOR
            )
            profiler = DrBwProfiler(machine, config)
            batch = profiler.profile(BENCHMARKS[name].build(inp), t, n, seed=SEED)
            monitor = _RecordingMonitor()
            live = profiler.profile_live(
                BENCHMARKS[name].build(inp), t, n, monitor=monitor, seed=SEED
            )
            cases.append({
                "benchmark": name,
                "input": inp,
                "config": f"T{t}-N{n}",
                "plan": plan,
                "profile": _profile_entry(batch),
                "live": dict(
                    _profile_entry(live),
                    n_intervals=len(monitor.intervals),
                    intervals_sha256=_digest(monitor.intervals),
                ),
            })
    return {"seed": SEED, "interval_cycles": INTERVAL_CYCLES, "cases": cases}
