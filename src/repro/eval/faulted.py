"""Robustness evaluation: the paper's detection experiments under faults.

The paper's Tables V/VI assume a clean collector; this module re-runs the
same cases through a :class:`~repro.faults.FaultPlan`-perturbed pipeline
and reports how the Table VI accuracy moves — the acceptance bar for the
degradation machinery is that the documented ``standard`` plan (10% drop,
1% corruption) keeps case accuracy within a few points of the clean run.

Entry points:

* :func:`run_detection_under_faults` — Table V-style case sweep through a
  faulted profiler (quarantine + confidence + bounded resampling on);
* :func:`run_table6_under_faults` — the clean-vs-faulted Table VI
  comparison, with the pooled degradation ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.classifier import classify_case
from repro.core.profiler import DroppedSampleReport, DrBwProfiler, ProfilerConfig
from repro.core.validation import ConfusionMatrix
from repro.eval.configs import EVAL_CONFIGS, RunConfig
from repro.eval.experiments import (
    CaseResult,
    DetectionResults,
    run_table5_detection,
    shared_classifier,
)
from repro.eval.groundtruth import interleave_oracle
from repro.faults import FAULT_PRESETS, FaultPlan
from repro.numasim.machine import Machine
from repro.workloads.suites.registry import BENCHMARKS, BenchmarkSpec

__all__ = [
    "FaultedDetectionResults",
    "Table6UnderFaults",
    "run_detection_under_faults",
    "run_table6_under_faults",
]


@dataclass
class FaultedDetectionResults(DetectionResults):
    """Table V cases run under a fault plan, plus the degradation ledger."""

    plan: FaultPlan = field(default_factory=FaultPlan)
    degradation: DroppedSampleReport = field(default_factory=DroppedSampleReport)

    def fold_degradation(self, dropped: DroppedSampleReport) -> None:
        """Pool one profile's ledger into the sweep-wide totals."""
        agg = self.degradation
        agg.observed += dropped.observed
        agg.kept += dropped.kept
        for reason, n in dropped.quarantined.items():
            agg.count(reason, n)
        for reason, n in dropped.injected.items():
            agg.injected[reason] = agg.injected.get(reason, 0) + n
        agg.resample_attempts += dropped.resample_attempts


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
) -> FaultedDetectionResults:
    """Run Table V cases through the fault-injected pipeline.

    Mirrors :func:`repro.eval.experiments.run_table5_detection` case for
    case — same oracle, same campaign machinery, per-case seeds derived
    from each shard's content hash (process-stable, unlike the salted
    ``hash()`` seeding this replaced) — so clean-vs-faulted deltas
    isolate the fault plan's effect.
    """
    from repro.parallel import CampaignRunner
    from repro.parallel.seeding import stable_case_seed
    from repro.parallel.shards import (
        benchmark_workload_spec,
        payload_channel_features,
        profile_shard,
        profiler_spec,
    )
    from repro.types import Mode

    clf, _ = shared_classifier(seed)
    pconfig = ProfilerConfig(
        faults=plan,
        resample_floor=resample_floor,
        resample_attempts=resample_attempts,
    )
    names = benchmarks or [n for n, s in BENCHMARKS.items() if s.in_table5]
    results = FaultedDetectionResults(plan=plan)
    pspec = profiler_spec(pconfig)
    if pspec is None:
        # Shard-unencodable fault plan: profile in-process, content-seeded.
        machine = Machine()
        profiler = DrBwProfiler(machine, pconfig)
        for name in names:
            spec: BenchmarkSpec = BENCHMARKS[name]
            for inp in spec.inputs:
                for cfg in configs:
                    workload = spec.build(inp)
                    profile = profiler.profile(
                        workload,
                        cfg.n_threads,
                        cfg.n_nodes,
                        seed=stable_case_seed(seed, name, inp, cfg.name),
                    )
                    verdict = interleave_oracle(
                        workload, machine, cfg.n_threads, cfg.n_nodes,
                        compiled=profile.compiled,
                    )
                    results.fold_degradation(profile.dropped)
                    detected = classify_case(clf.classify_profile(profile))
                    results.cases.append(
                        CaseResult(
                            benchmark=name,
                            input_name=inp,
                            config=cfg,
                            oracle_speedup=verdict.speedup,
                            actual=verdict.mode,
                            detected=detected,
                        )
                    )
        return results
    cases: list[tuple[str, str, RunConfig]] = []
    specs: list[dict] = []
    for name in names:
        bspec: BenchmarkSpec = BENCHMARKS[name]
        for inp in bspec.inputs:
            for cfg in configs:
                cases.append((name, inp, cfg))
                specs.append(
                    profile_shard(
                        benchmark_workload_spec(name, inp),
                        cfg.n_threads,
                        cfg.n_nodes,
                        profiler=pspec,
                        oracle=True,
                    )
                )
    runner = CampaignRunner(
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        use_cache=use_cache,
        campaign_seed=seed,
    )
    for (name, inp, cfg), outcome in zip(cases, runner.run(specs)):
        results.fold_degradation(outcome.dropped)
        labels = {
            ch: clf.classify_channel_detailed(fv).mode
            for ch, fv in payload_channel_features(outcome.payload).items()
        }
        oracle = outcome.payload["oracle"]
        results.cases.append(
            CaseResult(
                benchmark=name,
                input_name=inp,
                config=cfg,
                oracle_speedup=float(oracle["speedup"]),
                actual=Mode(oracle["mode"]),
                detected=classify_case(labels),
            )
        )
    return results


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
        degradation=faulted.degradation,
    )
