"""Robustness evaluation: the paper's detection experiments under faults.

The paper's Tables V/VI assume a clean collector; this module re-runs the
same cases through a :class:`~repro.faults.FaultPlan`-perturbed pipeline
and reports how the Table VI accuracy moves — the acceptance bar for the
degradation machinery is that the documented ``standard`` plan (10% drop,
1% corruption) keeps case accuracy within a few points of the clean run.

Entry points:

* :func:`run_detection_under_faults` — the Table V sweep run with a
  faulted profiler (quarantine + confidence + bounded resampling on);
* :func:`run_table6_under_faults` — the clean-vs-faulted Table VI
  comparison, with the pooled degradation ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.profiler import DroppedSampleReport, ProfilerConfig
from repro.core.validation import ConfusionMatrix
from repro.eval.configs import EVAL_CONFIGS, RunConfig
from repro.eval.experiments import (
    DetectionResults,
    _detection_sweep,
    run_table5_detection,
)
from repro.faults import FAULT_PRESETS, FaultPlan

__all__ = [
    "Table6UnderFaults",
    "run_detection_under_faults",
    "run_table6_under_faults",
]


def run_detection_under_faults(
    plan: FaultPlan,
    seed: int = 0,
    benchmarks: list[str] | None = None,
    configs: tuple[RunConfig, ...] = EVAL_CONFIGS,
    resample_floor: int = 25,
    resample_attempts: int = 3,
    *,
    jobs: int | None = None,
    cache=None,
    cache_dir: str | None = None,
    use_cache: bool = False,
) -> DetectionResults:
    """Run Table V cases through the fault-injected pipeline.

    This is the Table V sweep (:func:`repro.eval.experiments
    .run_table5_detection`) with a faulted profiler — same cases, same
    oracle, same content-hash shard seeds — so clean-vs-faulted deltas
    isolate the fault plan's effect.  The results carry the campaign's
    pooled degradation ledger (:attr:`DetectionResults.dropped`).  A fault
    plan the shard encoding cannot carry raises
    :class:`~repro.errors.ParallelError`.
    """
    from repro.parallel.shards import profiler_spec

    pspec = profiler_spec(
        ProfilerConfig(
            faults=plan,
            resample_floor=resample_floor,
            resample_attempts=resample_attempts,
        )
    )
    return _detection_sweep(
        seed, benchmarks, configs, pspec,
        jobs=jobs, cache=cache, cache_dir=cache_dir, use_cache=use_cache,
    )


@dataclass(frozen=True)
class Table6UnderFaults:
    """Clean vs. faulted Table VI accuracy, side by side."""

    plan: FaultPlan
    clean: ConfusionMatrix
    faulted: ConfusionMatrix
    degradation: DroppedSampleReport

    @property
    def accuracy_delta(self) -> float:
        """Faulted minus clean case accuracy (negative = degradation)."""
        return self.faulted.accuracy - self.clean.accuracy


def run_table6_under_faults(
    plan: FaultPlan | str = "standard",
    seed: int = 0,
    benchmarks: list[str] | None = None,
    configs: tuple[RunConfig, ...] = EVAL_CONFIGS,
) -> Table6UnderFaults:
    """The robustness headline: Table VI accuracy with and without faults."""
    if isinstance(plan, str):
        plan = FAULT_PRESETS[plan]
    clean = run_table5_detection(seed=seed, benchmarks=benchmarks, configs=configs)
    faulted = run_detection_under_faults(
        plan, seed=seed, benchmarks=benchmarks, configs=configs
    )
    return Table6UnderFaults(
        plan=plan,
        clean=clean.accuracy_summary(),
        faulted=faulted.accuracy_summary(),
        degradation=faulted.dropped,
    )
