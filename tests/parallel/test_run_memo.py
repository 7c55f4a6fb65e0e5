"""The shard executor's one-slot run memo.

A profile shard's simulated run is a function of its spec alone; the seed
only drives the PEBS thinning.  ``run_profile_shard`` therefore keeps the
last profiled run keyed by ``config_hash(spec)`` and samples it again for
the next shard of the same spec.  These tests pin that every input of the
simulation misses, that a hit gives the bytes of a cold run, and that
nothing mutates the shared run.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.core.profiler import DrBwProfiler, ProfilerConfig
from repro.errors import WorkloadError
from repro.faults import parse_fault_plan
from repro.numasim.latency import LatencyModel
from repro.numasim.machine import Machine
from repro.numasim.topology import NumaTopology
from repro.parallel import shards
from repro.parallel.seeding import canonical_json, config_hash
from repro.parallel.shards import (
    benchmark_workload_spec,
    machine_spec,
    profile_shard,
    profiler_spec,
    run_profile_shard,
)
from repro.pmu.sampler import SamplerConfig
from repro.telemetry import Telemetry, session
from repro.telemetry.artifact import collect_metadata, export_artifact, load_artifact
from repro.workloads.suites.registry import BENCHMARKS

T, N = 8, 2


def base_spec(**overrides) -> dict:
    args = dict(workload=benchmark_workload_spec("NW", "small"), n_threads=T, n_nodes=N)
    args.update(overrides)
    return profile_shard(**args)


@pytest.fixture
def cold(monkeypatch):
    """An empty slot, restored afterwards."""
    monkeypatch.setattr(shards, "_last_run", None)


def cold_bytes(spec: dict, seed: int) -> str:
    shards._last_run = None
    return canonical_json(run_profile_shard(spec, seed))


MISSES = {
    "machine": base_spec(machine=machine_spec(
        Machine(latency_model=LatencyModel(max_inflation=6.0)))),
    "topology": base_spec(machine=machine_spec(
        Machine(topology=NumaTopology(clock_ghz=2.0)))),
    "workload input": base_spec(workload=benchmark_workload_spec("NW", "default")),
    "threads": base_spec(n_threads=4),
    "nodes": base_spec(n_threads=8, n_nodes=4),
    "period": base_spec(profiler=profiler_spec(
        ProfilerConfig(sampler=SamplerConfig(period=1000)))),
    "interrupt cost": base_spec(profiler=profiler_spec(
        ProfilerConfig(interrupt_cost_cycles=400.0))),
}


@pytest.mark.parametrize("name", sorted(MISSES))
def test_every_simulation_input_misses(cold, name):
    spec = MISSES[name]
    assert config_hash(spec) != config_hash(base_spec())
    run_profile_shard(base_spec(), 1)
    held = shards._last_run
    got = canonical_json(run_profile_shard(spec, 1))
    assert shards._last_run[0] == config_hash(spec)
    assert shards._last_run[1] is not held[1]
    assert got == cold_bytes(spec, 1)


def test_new_seed_of_the_same_spec_hits(cold):
    spec = base_spec()
    first = canonical_json(run_profile_shard(spec, 1))
    held = shards._last_run
    second = canonical_json(run_profile_shard(spec, 2))
    assert shards._last_run is held  # a hit never replaces the slot
    assert second != first
    assert second == cold_bytes(spec, 2)
    assert first == cold_bytes(spec, 1)


def test_oracle_shard_reuses_and_matches_cold(cold):
    spec = base_spec(oracle=True)
    run_profile_shard(spec, 1)
    held = shards._last_run
    warm = canonical_json(run_profile_shard(spec, 2))
    assert shards._last_run is held
    assert warm == cold_bytes(spec, 2)


def test_a_miss_frees_the_slot_and_only_profiles_fill_it(cold):
    run_profile_shard(base_spec(), 1)
    run_profile_shard(base_spec(features=False, oracle=True), 1)
    assert shards._last_run is None


def test_a_miss_frees_the_held_run_before_simulating(cold, monkeypatch):
    """A serial process never holds two runs: the other spec's run is
    gone by the time the next simulation starts."""
    import repro.core.profiler as profiler_module

    run_profile_shard(base_spec(), 1)
    held = weakref.ref(shards._last_run[1])
    seen = []
    simulate = profiler_module.run_workload

    def watching(*args, **kwargs):
        gc.collect()
        seen.append(held() is None)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(profiler_module, "run_workload", watching)
    run_profile_shard(MISSES["threads"], 1)
    assert seen == [True]


def test_threads_on_one_spec_give_the_serial_bytes(cold):
    """More threads than cores, switching often, all missing at once: each
    result is the serial bytes and the slot ends up holding this spec."""
    spec = base_spec()
    seeds = (3, 4, 5, 6)
    want = {seed: cold_bytes(spec, seed) for seed in seeds}
    shards._last_run = None
    got: dict[int, str] = {}
    barrier = threading.Barrier(len(seeds))

    def job(seed: int) -> None:
        barrier.wait(timeout=60)
        got[seed] = canonical_json(run_profile_shard(spec, seed))

    threads = [threading.Thread(target=job, args=(s,)) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == want
    assert shards._last_run[0] == config_hash(spec)
    # And once more on whatever run the race left in the slot.
    assert canonical_json(run_profile_shard(spec, 3)) == want[3]


def test_faulted_spec_after_a_hit_equals_a_cold_run(cold):
    """The fault wrappers perturb batches, never the shared run."""
    cfg = ProfilerConfig(
        faults=parse_fault_plan("standard"), resample_floor=30, resample_attempts=3
    )
    spec = base_spec(profiler=profiler_spec(cfg))
    first = canonical_json(run_profile_shard(spec, 1))
    held = shards._last_run
    assert canonical_json(run_profile_shard(spec, 2)) == cold_bytes(spec, 2)
    shards._last_run = held
    assert canonical_json(run_profile_shard(spec, 1)) == first
    assert shards._last_run is held
    # The clean spec's run is not disturbed by a faulted one either.
    clean = base_spec()
    run_profile_shard(clean, 5)
    run_profile_shard(spec, 5)
    assert canonical_json(run_profile_shard(clean, 6)) == cold_bytes(clean, 6)


class TestProfilerRefusesAForeignRun:
    @pytest.fixture(scope="class")
    def profiled(self):
        machine = Machine()
        workload = BENCHMARKS["NW"].build("small")
        profile = DrBwProfiler(machine).profile(workload, T, N, seed=1)
        return machine, workload, profile.run

    def test_same_run_is_accepted(self, profiled):
        machine, workload, run = profiled
        again = DrBwProfiler(machine).profile(workload, T, N, seed=2, run=run)
        assert again.run is run

    def test_other_binding(self, profiled):
        machine, workload, run = profiled
        with pytest.raises(WorkloadError):
            DrBwProfiler(machine).profile(workload, 4, N, seed=2, run=run)

    def test_other_stall(self, profiled):
        machine, workload, run = profiled
        cheaper = DrBwProfiler(machine, ProfilerConfig(interrupt_cost_cycles=400.0))
        with pytest.raises(WorkloadError, match="stall"):
            cheaper.profile(workload, T, N, seed=2, run=run)

    def test_other_workload(self, profiled):
        machine, _, run = profiled
        twin = BENCHMARKS["NW"].build("small")
        with pytest.raises(WorkloadError):
            DrBwProfiler(machine).profile(twin, T, N, seed=2, run=run)


def test_reuse_is_explained_in_the_telemetry_artifact(cold, tmp_path):
    spec = base_spec()
    tel = Telemetry()
    with session(tel):
        run_profile_shard(spec, 1)
        run_profile_shard(spec, 2)
    export_artifact(
        str(tmp_path / "a"), tel, collect_metadata("profile", 1, Machine().topology), {}
    )
    artifact = load_artifact(str(tmp_path / "a"))
    assert artifact.metrics["counters"]["profiler.run_reused"] == 1
    reused = [s["attrs"]["reused"] for s in artifact.spans if s["name"] == "profiler.profile"]
    assert reused == [False, True]
    # The hit simulates nothing: one engine run for two profiles.
    assert [s["name"] for s in artifact.spans].count("engine.run") == 1

