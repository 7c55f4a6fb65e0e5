"""Sharded campaign execution with deterministic replay.

Every headline artifact of the reproduction — the Table II training set,
the Table V detection sweep, the Table VII overhead pass, the ablation
grids — is a *campaign*: many independent workload × topology × fault
configurations pushed through the profiling pipeline.  This package runs
campaigns through a ``ProcessPoolExecutor`` worker pool while keeping the
results **bit-for-bit independent of worker count and scheduling order**:

* each shard is a declarative, JSON-serializable spec
  (:func:`~repro.parallel.shards.profile_shard`) that the worker expands
  into machine + profiler + workload and executes from scratch;
* the shard's RNG seed is derived from ``(campaign_seed, config_hash)``
  via SHA-256 (:func:`~repro.parallel.seeding.shard_seed`) — never from a
  loop index observed in arrival order, never from Python's per-process
  salted ``hash()``;
* shard payloads are canonical JSON, content-addressed into an on-disk
  :class:`~repro.parallel.cache.ResultCache` (``~/.cache/drbw`` or
  ``DRBW_CACHE_DIR``/``--cache-dir``), so re-runs of unchanged configs
  are near-instant and cached results are bytes-identical to fresh ones;
* telemetry spans and the quarantine ledger are serialized per shard and
  merged back into the parent session, so ``drbw report`` renders
  parallel runs exactly like serial ones.

``--jobs 1`` (the default when ``DRBW_JOBS`` is unset) executes shards
in-process through the very same code path the workers run, which is what
makes the serial/parallel equivalence testable rather than aspirational.
See ``docs/parallelism.md`` for the design and determinism guarantees.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.parallel.cache": ("ResultCache", "default_cache_dir"),
    "repro.parallel.campaign": (
        "CampaignResult",
        "CampaignRunner",
        "ShardFailure",
        "ShardOutcome",
        "merge_dropped_payloads",
        "resolve_jobs",
    ),
    "repro.parallel.journal": ("CampaignJournal",),
    "repro.parallel.seeding": (
        "canonical_json",
        "config_hash",
        "shard_seed",
        "stable_case_seed",
    ),
    "repro.parallel.shards": (
        "PROFILE_SHARD_KIND",
        "benchmark_workload_spec",
        "machine_spec",
        "profile_shard",
        "profiler_spec",
        "run_profile_shard",
        "training_workload_spec",
    ),
})
