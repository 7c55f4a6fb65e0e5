"""Declarative shard specs and their worker-side execution.

A shard spec is a plain JSON dict describing one profiled run completely:
the workload (a training mini-program configuration or a named benchmark
input), the ``Tt-Nn`` placement, optional machine-model overrides,
optional profiler overrides (sampling period, fault plan, resample
knobs), and which extra measurements to take (interleave oracle, Table
VII overhead pass).  Every profiled case runs through a shard: a machine
or profiler config the encoders cannot carry raises
:class:`~repro.errors.ParallelError` naming the field, and there is no
in-process path around them.  Workers rebuild everything from the spec
and run it from scratch — except that a process keeps its last profiled
run, which the seed does not touch, for the next shard of the same spec
— so a shard's result depends only on ``(spec, seed)``, never on which
process executed it or in what order.

The payload is symmetric: plain JSON (feature vectors per channel, the
quarantine ledger, oracle/overhead numbers) that consumers re-hydrate
into the library's domain objects.  JSON floats round-trip exactly
(shortest-repr), so a payload that went through the cache is
bytes-identical to one computed fresh.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.core.profiler import DroppedSampleReport, ProfilerConfig
from repro.core.features import FeatureVector, TABLE1_FEATURE_NAMES
from repro.errors import ParallelError
from repro.numasim.cachemodel import CacheModel
from repro.numasim.latency import LatencyModel
from repro.numasim.machine import Machine
from repro.numasim.topology import NumaTopology
from repro.pmu.sampler import SamplerConfig
from repro.types import Channel
from repro.workloads.runner import WorkloadRun

__all__ = [
    "PROFILE_SHARD_KIND",
    "benchmark_workload_spec",
    "training_workload_spec",
    "machine_spec",
    "profiler_spec",
    "profile_shard",
    "run_profile_shard",
    "payload_channel_features",
    "payload_fallback_features",
    "dropped_from_payload",
    "dropped_to_dict",
]

#: Kind tag baked into every spec (and therefore every hash): bump it when
#: the payload layout changes so stale cache entries can never be replayed.
PROFILE_SHARD_KIND = "profile/v1"


# ---------------------------------------------------------------------------
# Workload specs
# ---------------------------------------------------------------------------

def training_workload_spec(cfg) -> dict:
    """Spec for one :class:`~repro.core.training.TrainingConfig` run."""
    d = dataclasses.asdict(cfg)
    d["label"] = cfg.label.value
    d["kind"] = "training"
    return d


def benchmark_workload_spec(name: str, input_name: str) -> dict:
    """Spec for one registered benchmark input."""
    return {"kind": "benchmark", "name": name, "input": input_name}


def _build_workload(wspec: dict):
    kind = wspec.get("kind")
    if kind == "training":
        from repro.core.training import TrainingConfig, _build_workload
        from repro.types import Mode

        fields = {k: v for k, v in wspec.items() if k != "kind"}
        fields["label"] = Mode(fields["label"])
        # JSON round-trips tuples as lists; TrainingConfig has none today,
        # but guard the frozen-dataclass rebuild against unknown keys.
        known = {f.name for f in dataclasses.fields(TrainingConfig)}
        unknown = set(fields) - known
        if unknown:
            raise ParallelError(f"unknown training-config fields {sorted(unknown)}")
        return _build_workload(TrainingConfig(**fields))
    if kind == "benchmark":
        from repro.workloads.suites.registry import BENCHMARKS

        try:
            spec = BENCHMARKS[wspec["name"]]
        except KeyError:
            raise ParallelError(f"unknown benchmark {wspec.get('name')!r}") from None
        return spec.build(wspec["input"])
    raise ParallelError(f"unknown workload spec kind {kind!r}")


# ---------------------------------------------------------------------------
# Machine / profiler specs
# ---------------------------------------------------------------------------

def _scalar_delta(section: str, value, default, unencodable: tuple[str, ...]) -> dict:
    """The fields of dataclass ``value`` that differ from ``default``."""
    delta = {}
    for f in dataclasses.fields(value):
        v = getattr(value, f.name)
        if v == getattr(default, f.name):
            continue
        if f.name in unencodable:
            raise ParallelError(f"a shard spec cannot encode {section}.{f.name} = {v!r}")
        delta[f.name] = v
    return delta


def machine_spec(machine: Machine) -> dict:
    """Serializable description of ``machine``: its topology and latency
    scalars that differ from the defaults.

    Raises :class:`~repro.errors.ParallelError` naming the field for a
    machine the encoding cannot carry (per-channel capacity overrides,
    non-default cache specs, latency base or cache model).
    """
    if machine.link_capacity_overrides:
        raise ParallelError("a shard spec cannot encode machine.link_capacity_overrides")
    if machine.cache_model != CacheModel():
        raise ParallelError("a shard spec cannot encode a non-default machine.cache_model")
    spec: dict[str, dict] = {}
    for section, value, default, unencodable in (
        ("topology", machine.topology, NumaTopology(), ("l1", "l2", "l3")),
        ("latency_model", machine.latency_model, LatencyModel(), ("base",)),
    ):
        delta = _scalar_delta(section, value, default, unencodable)
        if delta:
            spec[section] = delta
    return spec


def _build_machine(mspec: dict | None) -> Machine:
    if not mspec:
        return Machine()
    if "engine" in mspec:
        # Pre-PR10 shard specs could pin the retired scalar reference
        # kernel; refuse loudly rather than silently running columnar.
        raise ParallelError(
            "machine spec section 'engine' is no longer supported: the "
            "scalar reference kernel was retired (see docs/performance.md)"
        )
    unknown = set(mspec) - {"topology", "latency_model"}
    if unknown:
        raise ParallelError(f"unknown machine spec sections {sorted(unknown)}")
    topo = NumaTopology(**mspec.get("topology", {}))
    lat = LatencyModel(**mspec.get("latency_model", {}))
    return Machine(topology=topo, latency_model=lat)


def profiler_spec(config: ProfilerConfig) -> dict:
    """Serializable description of a profiler config.

    Raises :class:`~repro.errors.ParallelError` naming the field for a
    config the encoding cannot carry (a custom PMU event, a fault plan
    that is not a :class:`~repro.faults.FaultPlan`).
    """
    sampler = config.sampler
    if sampler.event != SamplerConfig().event:
        raise ParallelError(
            f"a shard spec cannot encode sampler.event = {sampler.event.name!r}"
        )
    sampler_d = dataclasses.asdict(sampler)
    del sampler_d["event"]
    del sampler_d["seed"]  # the shard seed replaces it
    sampler_d["outlier_scale"] = list(sampler.outlier_scale)
    sampler_d["tlb_walk_cycles"] = list(sampler.tlb_walk_cycles)
    faults = None
    if config.faults is not None:
        from repro.faults import FaultPlan

        if not isinstance(config.faults, FaultPlan):
            raise ParallelError(
                f"a shard spec cannot encode profiler.faults of type "
                f"{type(config.faults).__name__}"
            )
        faults = dataclasses.asdict(config.faults)
        faults["truncate_fraction"] = list(config.faults.truncate_fraction)
    return {
        "sampler": sampler_d,
        "interrupt_cost_cycles": config.interrupt_cost_cycles,
        "alloc_intercept_cost_cycles": config.alloc_intercept_cost_cycles,
        "faults": faults,
        "resample_floor": config.resample_floor,
        "resample_attempts": config.resample_attempts,
        "resample_backoff": config.resample_backoff,
    }


def _build_profiler_config(pspec: dict | None, seed: int) -> ProfilerConfig:
    pspec = pspec or {}
    sampler_d = dict(pspec.get("sampler", {}))
    for key in ("outlier_scale", "tlb_walk_cycles"):
        if key in sampler_d:
            sampler_d[key] = tuple(sampler_d[key])
    sampler = SamplerConfig(seed=seed, **sampler_d)
    faults = None
    if pspec.get("faults") is not None:
        from repro.faults import FaultPlan

        fault_d = dict(pspec["faults"])
        if "truncate_fraction" in fault_d:
            fault_d["truncate_fraction"] = tuple(fault_d["truncate_fraction"])
        faults = FaultPlan(**fault_d)
    return ProfilerConfig(
        sampler=sampler,
        interrupt_cost_cycles=pspec.get("interrupt_cost_cycles", 800.0),
        alloc_intercept_cost_cycles=pspec.get("alloc_intercept_cost_cycles", 2000.0),
        faults=faults,
        resample_floor=pspec.get("resample_floor", 0),
        resample_attempts=pspec.get("resample_attempts", 3),
        resample_backoff=pspec.get("resample_backoff", 2.0),
    )


# ---------------------------------------------------------------------------
# The shard itself
# ---------------------------------------------------------------------------

def profile_shard(
    workload: dict,
    n_threads: int,
    n_nodes: int,
    machine: dict | None = None,
    profiler: dict | None = None,
    oracle: bool = False,
    overhead: bool = False,
    features: bool = True,
) -> dict:
    """Assemble one profile-shard spec (plain JSON, hashable, cacheable)."""
    return {
        "kind": PROFILE_SHARD_KIND,
        "workload": workload,
        "n_threads": int(n_threads),
        "n_nodes": int(n_nodes),
        "machine": machine or {},
        "profiler": profiler,
        "oracle": bool(oracle),
        "overhead": bool(overhead),
        "features": bool(features),
    }


def dropped_to_dict(report: DroppedSampleReport) -> dict:
    """JSON form of the quarantine ledger (sorted for canonical bytes)."""
    return {
        "observed": report.observed,
        "kept": report.kept,
        "quarantined": {k: report.quarantined[k] for k in sorted(report.quarantined)},
        "injected": {k: report.injected[k] for k in sorted(report.injected)},
        "resample_attempts": report.resample_attempts,
        "resampled_channels": [[c.src, c.dst] for c in report.resampled_channels],
    }


def dropped_from_payload(d: dict) -> DroppedSampleReport:
    """Re-hydrate one shard's quarantine ledger."""
    return DroppedSampleReport(
        observed=int(d.get("observed", 0)),
        kept=int(d.get("kept", 0)),
        quarantined={str(k): int(v) for k, v in d.get("quarantined", {}).items()},
        injected={str(k): int(v) for k, v in d.get("injected", {}).items()},
        resample_attempts=int(d.get("resample_attempts", 0)),
        resampled_channels=tuple(
            Channel(int(s), int(dn)) for s, dn in d.get("resampled_channels", ())
        ),
    )


#: The last shard's profiled run, keyed by its spec's ``config_hash``.
#: The spec fixes everything the simulation reads (machine, workload,
#: ``Tt-Nn``, profiling stall) and holds no seed, which only drives the
#: PEBS thinning: a shard at a new seed of the same spec samples this run
#: instead of compiling and simulating again.  One slot per process: a
#: miss empties it before simulating (so a serial process never holds two
#: runs) and fills it with one tuple assignment.  It is read without a lock:
#: threads that miss at once each simulate the same bytes, and no caller
#: modifies a run.
_last_run: tuple[str, WorkloadRun] | None = None


def run_profile_shard(spec: dict, seed: int) -> dict:
    """Execute one shard (in a worker or in-process) and return its payload.

    The only inputs are ``spec`` and ``seed``; everything else — machine,
    profiler, workload — is rebuilt here (or, for the profiled run, taken
    from the last shard of the same spec), which is what makes the result
    independent of the executing process.
    """
    global _last_run
    if spec.get("kind") != PROFILE_SHARD_KIND:
        raise ParallelError(f"unsupported shard kind {spec.get('kind')!r}")
    from repro.core.profiler import DrBwProfiler
    from repro.parallel.seeding import config_hash

    machine = _build_machine(spec.get("machine"))
    profiler = DrBwProfiler(machine, _build_profiler_config(spec.get("profiler"), seed))
    t, n = int(spec["n_threads"]), int(spec["n_nodes"])

    # Only specs with features store a run, so no other spec's key matches.
    key = config_hash(spec)
    last = _last_run
    run = last[1] if last is not None and last[0] == key else None
    if run is not None:
        workload = run.compiled.workload
    else:
        # Drop the other spec's run, this frame's reference included,
        # before simulating this one.
        _last_run = last = None
        workload = _build_workload(spec["workload"])
    profile = None
    if spec.get("features", True):
        profile = profiler.profile(workload, t, n, seed=seed, run=run)
        if run is None:
            _last_run = (key, profile.run)

    payload: dict[str, Any] = {}
    if spec.get("overhead"):
        plain, profiled, _ = profiler.measure_overhead(workload, t, n)
        payload["overhead"] = {
            "plain_cycles": float(plain),
            "profiled_cycles": float(profiled),
        }
    if spec.get("oracle"):
        from repro.eval.groundtruth import interleave_oracle

        # The oracle's original run shares the profiled run's compile.
        compiled = profile.run.compiled if profile is not None else None
        verdict = interleave_oracle(workload, machine, t, n, compiled=compiled)
        payload["oracle"] = {
            "original_cycles": float(verdict.original_cycles),
            "interleaved_cycles": float(verdict.interleaved_cycles),
            "speedup": float(verdict.speedup),
            "mode": verdict.mode.value,
        }
    if profile is not None:
        per_channel = profile.features_per_channel()
        payload["channels"] = [
            [ch.src, ch.dst, fv.values.tolist()]
            for ch, fv in sorted(per_channel.items())
        ]
        payload["fallback"] = profile.features_for(Channel(0, 1)).values.tolist()
        payload["total_cycles"] = float(profile.total_cycles)
        payload["dropped"] = dropped_to_dict(profile.dropped)
    return payload


def payload_channel_features(payload: dict) -> dict[Channel, FeatureVector]:
    """Per-channel Table I features from one shard payload, in sorted
    channel order (the same order the batch extractor produces)."""
    return {
        Channel(int(s), int(d)): FeatureVector(
            names=TABLE1_FEATURE_NAMES, values=list(map(float, values))
        )
        for s, d, values in payload.get("channels", ())
    }


def payload_fallback_features(payload: dict) -> FeatureVector:
    """The zero-remote fallback channel's context features (node 0 → 1)."""
    return FeatureVector(
        names=TABLE1_FEATURE_NAMES,
        values=list(map(float, payload["fallback"])),
    )
