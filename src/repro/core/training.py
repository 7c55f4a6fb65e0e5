"""Training-data collection and classifier fitting (Sections V.A–V.D).

The paper's training set (Table II) has 192 instances:

=========  =====  ====  ======
program     good   rmc   total
=========  =====  ====  ======
sumv          24    24      48
dotv          24    24      48
countv        24    24      48
bandit        48     –      48
total        120    72     192
=========  =====  ====  ======

Each instance is one profiled run of a mini-program under a specific
configuration (problem size × threads × node binding × allocation policy),
manually labeled ``good`` or ``rmc``.  Our configurations are built so the
label follows from the construction — large first-touch vectors streamed
from several sockets contend on node 0's channels; cache-resident,
single-node, or co-located runs do not — and the test suite verifies the
labels against measured channel utilization, standing in for the paper's
manual examination.

Feature vectors are per-channel; one run contributes the features of its
*hottest* channel (most remote-DRAM samples), or a zero-remote vector when
the run never leaves its socket.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.core.classifier import DrBwClassifier
from repro.core.features import TABLE1_FEATURE_NAMES, FeatureVector
from repro.core.profiler import DrBwProfiler, ProfileResult
from repro.numasim.machine import Machine
from repro.telemetry import get_telemetry
from repro.types import Channel, Mode

logger = logging.getLogger(__name__)
from repro.workloads.bandit import make_bandit
from repro.workloads.micro import make_countv, make_dotv, make_sumv

__all__ = [
    "TrainingInstance",
    "TrainingConfig",
    "micro_training_configs",
    "bandit_training_configs",
    "all_training_configs",
    "collect_training_set",
    "train_default_classifier",
    "hottest_channel_features",
    "hottest_channel_from",
]

_MB = 1024 * 1024


@dataclass(frozen=True)
class TrainingConfig:
    """One training run: which program, at what size, on which threads."""

    program: str
    label: Mode
    vector_bytes: int = 0
    n_threads: int = 1
    n_nodes: int = 1
    colocate: bool = False
    # bandit-only knobs
    n_instances: int = 0
    streams: int = 0
    target_node: int = 1
    accesses: float = 2_000_000.0

    def describe(self) -> str:
        if self.program == "bandit":
            return (
                f"bandit i={self.n_instances} s={self.streams} "
                f"node={self.target_node} {self.vector_bytes // _MB}MB"
            )
        tag = " colocate" if self.colocate else ""
        return (
            f"{self.program} {self.vector_bytes // _MB}MB "
            f"T{self.n_threads}-N{self.n_nodes}{tag}"
        )


@dataclass(frozen=True)
class TrainingInstance:
    """A labeled feature vector plus its provenance."""

    config: TrainingConfig
    features: FeatureVector
    label: Mode
    channel: Channel | None


def micro_training_configs(program: str) -> list[TrainingConfig]:
    """24 good + 24 rmc configurations for one vector mini-program.

    *good* mixes cache-resident multi-socket runs, DRAM-heavy single-node
    runs, and co-located multi-socket runs; *rmc* is first-touch node-0
    data streamed from 2–4 sockets at four sizes.
    """
    good: list[TrainingConfig] = []
    # Cache-resident: two small sizes across six thread/node shapes (12).
    for mb in (1, 8):
        for t, n in ((2, 1), (4, 1), (8, 1), (8, 2), (16, 2), (16, 4)):
            good.append(
                TrainingConfig(program, Mode.GOOD, mb * _MB, t, n)
            )
    # DRAM-heavy but single-node: all traffic stays local (6).
    for mb in (256, 512):
        for t in (2, 4, 8):
            good.append(TrainingConfig(program, Mode.GOOD, mb * _MB, t, 1))
    # Large and multi-socket but co-located: remote-free by construction (6).
    for mb, t, n in (
        (256, 16, 2),
        (256, 32, 4),
        (512, 16, 4),
        (512, 32, 4),
        (512, 16, 2),
        (256, 24, 3),
    ):
        good.append(TrainingConfig(program, Mode.GOOD, mb * _MB, t, n, colocate=True))

    rmc: list[TrainingConfig] = []
    # First-touch on node 0, streamed from several sockets (24).
    for mb in (128, 256, 512, 1024):
        for t, n in ((8, 2), (16, 2), (32, 2), (16, 4), (32, 4), (24, 3)):
            rmc.append(TrainingConfig(program, Mode.RMC, mb * _MB, t, n))
    assert len(good) == 24 and len(rmc) == 24
    return good + rmc


def bandit_training_configs() -> list[TrainingConfig]:
    """48 bandit configurations, all labeled good (Table II).

    Single-threaded instances, remote by construction, tuned over stream
    count, co-runner count, target node, and region size — lots of remote
    samples at healthy latency.
    """
    configs: list[TrainingConfig] = []
    for n_instances in (1, 2):
        for streams in (1, 2, 3, 4):
            for target in (1, 2, 3):
                # Two run durations per shape: bandit sessions are short
                # single-threaded probes, so their remote sample counts sit
                # well below those of long multi-threaded contended runs.
                for mb, accesses in ((32, 400_000.0), (64, 1_600_000.0)):
                    configs.append(
                        TrainingConfig(
                            "bandit",
                            Mode.GOOD,
                            vector_bytes=mb * _MB,
                            n_threads=n_instances,
                            n_nodes=1,
                            n_instances=n_instances,
                            streams=streams,
                            target_node=target,
                            accesses=accesses,
                        )
                    )
    assert len(configs) == 48
    return configs


def all_training_configs() -> list[TrainingConfig]:
    """The full 192-run grid of Table II."""
    configs: list[TrainingConfig] = []
    for program in ("sumv", "dotv", "countv"):
        configs.extend(micro_training_configs(program))
    configs.extend(bandit_training_configs())
    return configs


_BUILDERS = {"sumv": make_sumv, "dotv": make_dotv, "countv": make_countv}


def _build_workload(cfg: TrainingConfig):
    if cfg.program == "bandit":
        return make_bandit(
            n_instances=cfg.n_instances,
            streams_per_instance=cfg.streams,
            target_node=cfg.target_node,
            region_bytes=cfg.vector_bytes,
            accesses_per_instance=cfg.accesses,
        )
    return _BUILDERS[cfg.program](cfg.vector_bytes, colocate=cfg.colocate)


def hottest_channel_from(
    per_channel: dict[Channel, FeatureVector],
    fallback: FeatureVector,
    min_support: int | None = None,
) -> tuple[FeatureVector, Channel | None]:
    """Pick the channel with the most remote-DRAM samples from a feature map.

    The shared core of :func:`hottest_channel_features` and the campaign
    payload path — both hand it the same ``{channel: features}`` map, so
    serial and sharded collection select identically.  Ties break toward
    the smallest channel (channels sort by ``(src, dst)``), never by dict
    iteration order.

    Runs with no channel reaching ``min_support`` (the classifier's
    evidence floor, applied here too so training sees the same
    distribution the detector will) contribute the ``fallback`` context
    features with zeroed remote features, matching what PEBS would (not)
    see.
    """
    from repro.core.classifier import MIN_CHANNEL_SUPPORT

    if min_support is None:
        min_support = MIN_CHANNEL_SUPPORT
    eligible = {
        ch: fv
        for ch, fv in per_channel.items()
        if fv["num_remote_dram_samples"] >= min_support
    }
    if not eligible:
        values = fallback.values.copy()
        for i, name in enumerate(fallback.names):
            if name in ("num_remote_dram_samples", "avg_remote_dram_latency"):
                values[i] = 0.0
        return FeatureVector(names=fallback.names, values=values), None
    ch = max(sorted(eligible), key=lambda c: eligible[c]["num_remote_dram_samples"])
    return eligible[ch], ch


def hottest_channel_features(
    profile: ProfileResult, min_support: int | None = None
) -> tuple[FeatureVector, Channel | None]:
    """Features of the channel with the most remote-DRAM samples."""
    return hottest_channel_from(
        profile.features_per_channel(),
        profile.features_for(Channel(0, 1)),
        min_support=min_support,
    )


def collect_training_set(
    machine: Machine,
    profiler: DrBwProfiler | None = None,
    configs: list[TrainingConfig] | None = None,
    seed: int = 0,
    *,
    jobs: int | None = None,
    cache=None,
    cache_dir: str | None = None,
    use_cache: bool = False,
    runner_opts: dict | None = None,
) -> list[TrainingInstance]:
    """Profile every training configuration and return labeled instances.

    Collection runs as a sharded campaign: each configuration becomes a
    declarative shard spec seeded from ``(seed, config hash)``, executed
    over ``jobs`` worker processes (``DRBW_JOBS``/serial by default) and
    optionally memoized in the on-disk result cache.  The result is
    bit-identical for any worker count.  A machine or profiler config the
    shard encoding cannot carry (custom PMU events, per-channel capacity
    overrides) raises :class:`~repro.errors.ParallelError`.
    """
    from repro.parallel import CampaignRunner
    from repro.parallel.shards import (
        machine_spec,
        payload_channel_features,
        payload_fallback_features,
        profile_shard,
        profiler_spec,
        training_workload_spec,
    )

    profiler = profiler or DrBwProfiler(machine)
    configs = configs if configs is not None else all_training_configs()
    mspec = machine_spec(machine)
    pspec = profiler_spec(profiler.config)
    instances: list[TrainingInstance] = []
    with get_telemetry().span("training.collect", n_configs=len(configs)):
        specs = [
            profile_shard(
                training_workload_spec(cfg),
                cfg.n_threads,
                cfg.n_nodes,
                machine=mspec,
                profiler=pspec,
            )
            for cfg in configs
        ]
        runner = CampaignRunner(
            jobs=jobs,
            cache=cache,
            cache_dir=cache_dir,
            use_cache=use_cache,
            campaign_seed=seed,
            **(runner_opts or {}),
        )
        for cfg, outcome in zip(configs, runner.run(specs)):
            features, channel = hottest_channel_from(
                payload_channel_features(outcome.payload),
                payload_fallback_features(outcome.payload),
            )
            instances.append(
                TrainingInstance(
                    config=cfg, features=features, label=cfg.label, channel=channel
                )
            )
    logger.info("collected %d training instances", len(instances))
    return instances


def training_matrix(instances: list[TrainingInstance]) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) arrays from training instances."""
    X = np.stack([inst.features.values for inst in instances])
    y = np.array([inst.label.value for inst in instances])
    return X, y


def train_default_classifier(
    machine: Machine,
    profiler: DrBwProfiler | None = None,
    configs: list[TrainingConfig] | None = None,
    seed: int = 0,
    *,
    jobs: int | None = None,
    cache=None,
    cache_dir: str | None = None,
    use_cache: bool = False,
    runner_opts: dict | None = None,
) -> tuple[DrBwClassifier, list[TrainingInstance]]:
    """Collect the Table II training set and fit the DR-BW classifier."""
    instances = collect_training_set(
        machine,
        profiler,
        configs,
        seed=seed,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        use_cache=use_cache,
        runner_opts=runner_opts,
    )
    X, y = training_matrix(instances)
    clf = DrBwClassifier(feature_names=TABLE1_FEATURE_NAMES)
    with get_telemetry().span("training.fit", n_instances=len(instances)):
        clf.fit(X, y)
    return clf, instances
