"""Experiment drivers regenerating every table and figure of the paper.

Each ``run_*`` function is self-contained, deterministic given its seed,
and returns a plain-data result object that :mod:`repro.eval.tables`
renders in the paper's layout.  The benchmark harness under
``benchmarks/`` calls these drivers one table/figure at a time.

A single trained classifier is shared across experiments via
:func:`shared_classifier` — training takes a few seconds and every
detection experiment needs the same model, as in the paper's workflow
(train once on the mini-programs, apply everywhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.core.classifier import DrBwClassifier, classify_benchmark, classify_case
from repro.core.diagnoser import Diagnoser, DiagnosisReport
from repro.core.profiler import DroppedSampleReport, DrBwProfiler, ProfilerConfig
from repro.core.training import (
    TrainingInstance,
    train_default_classifier,
    training_matrix,
)
from repro.core.validation import ConfusionMatrix, CrossValidationResult, cross_validate
from repro.eval.configs import EVAL_CONFIGS, RunConfig
from repro.numasim.machine import Machine
from repro.optim import (
    colocate_objects,
    interleave_objects,
    measure_speedup,
    replicate_objects,
)
from repro.types import Mode
from repro.workloads.base import Workload
from repro.workloads.suites.registry import BENCHMARKS, BenchmarkSpec

__all__ = [
    "shared_classifier",
    "run_table2_training_data",
    "run_table3_confusion",
    "run_fig3_tree",
    "run_table5_detection",
    "run_table4_classes",
    "run_table6_accuracy",
    "run_table7_overhead",
    "run_fig4_cf",
    "run_fig5_amg",
    "run_fig6_irsmk",
    "run_fig7_streamcluster",
    "run_fig8_lulesh",
    "run_case_sp",
    "run_case_blackscholes",
]


@lru_cache(maxsize=2)
def shared_classifier(seed: int = 0) -> tuple[DrBwClassifier, tuple[TrainingInstance, ...]]:
    """Train (once) the default DR-BW classifier on the Table II data."""
    machine = Machine()
    clf, instances = train_default_classifier(machine, seed=seed)
    return clf, tuple(instances)


# ---------------------------------------------------------------------------
# Tables II / III / Figure 3 — training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainingSummary:
    """Table II: per-program good/rmc instance counts."""

    counts: dict[str, tuple[int, int]]  # program -> (good, rmc)

    @property
    def total(self) -> int:
        return sum(g + r for g, r in self.counts.values())


def run_table2_training_data(seed: int = 0) -> TrainingSummary:
    """Collect the training set and summarize it as in Table II."""
    _, instances = shared_classifier(seed)
    counts: dict[str, list[int]] = {}
    for inst in instances:
        slot = counts.setdefault(inst.config.program, [0, 0])
        slot[0 if inst.label is Mode.GOOD else 1] += 1
    return TrainingSummary(counts={k: (v[0], v[1]) for k, v in counts.items()})


def run_table3_confusion(seed: int = 0, k: int = 10) -> CrossValidationResult:
    """Stratified k-fold CV on the training set (Table III)."""
    clf, instances = shared_classifier(seed)
    X, y = training_matrix(list(instances))
    return cross_validate(clf, X, y, k=k, seed=seed)


@dataclass(frozen=True)
class TreeSummary:
    """Figure 3: the fitted tree and which features it uses."""

    rendering: str
    used_features: tuple[str, ...]
    depth: int
    n_leaves: int
    importances: dict[str, float]


def run_fig3_tree(seed: int = 0) -> TreeSummary:
    """The learned decision tree (Figure 3)."""
    clf, _ = shared_classifier(seed)
    imp = {
        name: float(v)
        for name, v in zip(clf.feature_names, clf.tree.feature_importances_)
        if v > 0
    }
    return TreeSummary(
        rendering=clf.render_tree(),
        used_features=tuple(sorted(clf.used_feature_names())),
        depth=clf.tree.depth,
        n_leaves=clf.tree.n_leaves,
        importances=imp,
    )


# ---------------------------------------------------------------------------
# Tables IV / V / VI — benchmark detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseResult:
    """One benchmark case: configuration, oracle verdict, detection."""

    benchmark: str
    input_name: str
    config: RunConfig
    oracle_speedup: float
    actual: Mode
    detected: Mode


@dataclass
class DetectionResults:
    """All Table V cases plus the derived Table IV / VI summaries, and the
    campaign's pooled quarantine ledger."""

    cases: list[CaseResult] = field(default_factory=list)
    dropped: DroppedSampleReport = field(default_factory=DroppedSampleReport)

    def per_benchmark(self) -> dict[str, tuple[int, int, int]]:
        """benchmark -> (cases, actual RMC, detected RMC), Table V rows."""
        out: dict[str, list[int]] = {}
        for c in self.cases:
            row = out.setdefault(c.benchmark, [0, 0, 0])
            row[0] += 1
            row[1] += c.actual is Mode.RMC
            row[2] += c.detected is Mode.RMC
        return {k: tuple(v) for k, v in out.items()}  # type: ignore[return-value]

    def benchmark_classes(self) -> dict[str, Mode]:
        """Table IV: benchmark-level class from the per-case ground truth."""
        by_bench: dict[str, list[Mode]] = {}
        for c in self.cases:
            by_bench.setdefault(c.benchmark, []).append(c.actual)
        return {b: classify_benchmark(labels) for b, labels in by_bench.items()}

    def accuracy_summary(self) -> ConfusionMatrix:
        """Table VI: detection-vs-actual confusion over all cases."""
        actual = np.array([c.actual.value for c in self.cases])
        detected = np.array([c.detected.value for c in self.cases])
        return ConfusionMatrix.from_predictions(
            actual, detected, labels=(Mode.RMC.value, Mode.GOOD.value)
        )

    @property
    def false_negative_rate(self) -> float:
        return self.accuracy_summary().rate(Mode.RMC.value, Mode.GOOD.value)

    @property
    def false_positive_rate(self) -> float:
        return self.accuracy_summary().rate(Mode.GOOD.value, Mode.RMC.value)


def run_table5_detection(
    seed: int = 0,
    benchmarks: list[str] | None = None,
    configs: tuple[RunConfig, ...] = EVAL_CONFIGS,
    *,
    jobs: int | None = None,
    cache=None,
    cache_dir: str | None = None,
    use_cache: bool = False,
    runner_opts: dict | None = None,
) -> DetectionResults:
    """Run every Table V case: interleave oracle vs DR-BW detection.

    Each (benchmark, input, configuration) case is one campaign shard: the
    worker profiles the run and evaluates the interleave oracle, the
    parent classifies the returned per-channel features.  Keeping the
    model out of the shard makes cache entries reusable across
    classifiers, and shard seeds come from the case's content hash — the
    old ``hash((name, inp, cfg.name))`` seeding was salted per process and
    made every fresh interpreter a different experiment.
    """
    return _detection_sweep(
        seed, benchmarks, configs, None,
        jobs=jobs, cache=cache, cache_dir=cache_dir, use_cache=use_cache,
        runner_opts=runner_opts,
    )


def _detection_sweep(
    seed: int,
    benchmarks: list[str] | None,
    configs: tuple[RunConfig, ...],
    pspec: dict | None,
    *,
    jobs: int | None = None,
    cache=None,
    cache_dir: str | None = None,
    use_cache: bool = False,
    runner_opts: dict | None = None,
) -> DetectionResults:
    """The Table V case loop, profiling each case with shard profiler spec
    ``pspec`` (``None`` is the default profiler)."""
    from repro.parallel import CampaignRunner
    from repro.parallel.shards import (
        benchmark_workload_spec,
        payload_channel_features,
        profile_shard,
    )

    clf, _ = shared_classifier(seed)
    names = benchmarks or [n for n, s in BENCHMARKS.items() if s.in_table5]
    cases: list[tuple[str, str, RunConfig]] = []
    specs: list[dict] = []
    for name in names:
        spec: BenchmarkSpec = BENCHMARKS[name]
        for inp in spec.inputs:
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
        **(runner_opts or {}),
    )
    campaign = runner.run(specs)
    results = DetectionResults(dropped=campaign.dropped)
    for (name, inp, cfg), outcome in zip(cases, campaign):
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


def run_table4_classes(detection: DetectionResults) -> dict[str, Mode]:
    """Table IV from the Table V case results."""
    return detection.benchmark_classes()


def run_table6_accuracy(detection: DetectionResults) -> ConfusionMatrix:
    """Table VI from the Table V case results."""
    return detection.accuracy_summary()


# ---------------------------------------------------------------------------
# Table VII — profiling overhead
# ---------------------------------------------------------------------------

#: The six case-study benchmarks Table VII profiles, with their inputs.
TABLE7_BENCHMARKS: tuple[tuple[str, str], ...] = (
    ("IRSmk", "large"),
    ("AMG2006", "30x30x30"),
    ("Streamcluster", "native"),
    ("NW", "default"),
    ("SP", "C"),
    ("LULESH", "large"),
)


@dataclass(frozen=True)
class OverheadRow:
    benchmark: str
    plain_cycles: float
    profiled_cycles: float

    @property
    def overhead(self) -> float:
        return self.profiled_cycles / self.plain_cycles - 1.0


def run_table7_overhead(
    config: RunConfig = RunConfig(64, 4),
    profiler_config: ProfilerConfig | None = None,
    *,
    seed: int = 0,
    jobs: int | None = None,
    cache=None,
    cache_dir: str | None = None,
    use_cache: bool = False,
    runner_opts: dict | None = None,
) -> list[OverheadRow]:
    """Profiling overhead at 64 threads across four nodes (Table VII).

    Overhead shards skip feature extraction (``features=False``) — the
    measurement is the plain-vs-profiled cycle pair.  A profiler config
    the shard encoding cannot carry raises
    :class:`~repro.errors.ParallelError`.
    """
    from repro.parallel import CampaignRunner
    from repro.parallel.shards import (
        benchmark_workload_spec,
        profile_shard,
        profiler_spec,
    )

    pspec = profiler_spec(profiler_config or ProfilerConfig())
    specs = [
        profile_shard(
            benchmark_workload_spec(name, inp),
            config.n_threads,
            config.n_nodes,
            profiler=pspec,
            overhead=True,
            features=False,
        )
        for name, inp in TABLE7_BENCHMARKS
    ]
    runner = CampaignRunner(
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        use_cache=use_cache,
        campaign_seed=seed,
        **(runner_opts or {}),
    )
    return [
        OverheadRow(
            benchmark=name,
            plain_cycles=outcome.payload["overhead"]["plain_cycles"],
            profiled_cycles=outcome.payload["overhead"]["profiled_cycles"],
        )
        for (name, _), outcome in zip(TABLE7_BENCHMARKS, runner.run(specs))
    ]


# ---------------------------------------------------------------------------
# Figure 4 — Contribution Fraction distributions
# ---------------------------------------------------------------------------

#: Figure 4 panels: benchmark, input, configuration.
FIG4_PANELS: tuple[tuple[str, str, RunConfig], ...] = (
    ("AMG2006", "30x30x30", RunConfig(32, 4)),
    ("Streamcluster", "native", RunConfig(32, 4)),
    ("LULESH", "large", RunConfig(32, 4)),
    ("NW", "default", RunConfig(32, 4)),
)


def run_fig4_cf(seed: int = 0) -> dict[str, DiagnosisReport]:
    """CF distribution across data objects for the four case studies."""
    machine = Machine()
    clf, _ = shared_classifier(seed)
    profiler = DrBwProfiler(machine)
    diagnoser = Diagnoser()
    out: dict[str, DiagnosisReport] = {}
    for name, inp, cfg in FIG4_PANELS:
        workload = BENCHMARKS[name].build(inp)
        profile = profiler.profile(workload, cfg.n_threads, cfg.n_nodes, seed=seed + 17)
        labels = clf.classify_profile(profile)
        out[name] = diagnoser.diagnose(profile, labels)
    return out


# ---------------------------------------------------------------------------
# Figures 5-8 and remaining case studies — optimization speedups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpeedupRow:
    """One bar group: configuration plus speedups per strategy."""

    label: str
    config: RunConfig
    speedups: dict[str, float]


#: AMG2006's four blamed arrays (Figure 4(a)) — the co-locate target set.
AMG_COLOCATE_TARGETS = frozenset(
    {"RAP_diag_j", "diag_j", "diag_data", "A_diag_data"}
)


def run_fig5_amg(
    configs: tuple[RunConfig, ...] = (
        RunConfig(16, 4),
        RunConfig(24, 4),
        RunConfig(32, 4),
        RunConfig(64, 4),
    ),
) -> list[SpeedupRow]:
    """AMG2006 per-phase speedups: co-locate vs interleave (Figure 5)."""
    machine = Machine()
    base = BENCHMARKS["AMG2006"].build("30x30x30")
    rows: list[SpeedupRow] = []
    for cfg in configs:
        colocated = measure_speedup(
            base, colocate_objects(base, set(AMG_COLOCATE_TARGETS)), machine,
            cfg.n_threads, cfg.n_nodes,
        )
        interleaved = measure_speedup(
            base, interleave_objects(base), machine, cfg.n_threads, cfg.n_nodes
        )
        speedups = {}
        for tag, res in (("co-locate", colocated), ("interleave", interleaved)):
            speedups[f"{tag}:total"] = res.speedup
            for phase in ("init", "setup", "solve"):
                speedups[f"{tag}:{phase}"] = res.phase_speedup(phase)
        rows.append(SpeedupRow(label=cfg.name, config=cfg, speedups=speedups))
    return rows


def _two_way_rows(
    workload_builder,
    inputs: list[str],
    configs: tuple[RunConfig, ...],
    optimize_a,
    optimize_b,
    tag_a: str,
    tag_b: str,
) -> list[SpeedupRow]:
    machine = Machine()
    rows: list[SpeedupRow] = []
    for inp in inputs:
        base = workload_builder(inp)
        for cfg in configs:
            res_a = measure_speedup(base, optimize_a(base), machine, cfg.n_threads, cfg.n_nodes)
            res_b = measure_speedup(base, optimize_b(base), machine, cfg.n_threads, cfg.n_nodes)
            rows.append(
                SpeedupRow(
                    label=f"{inp} {cfg.name}",
                    config=cfg,
                    speedups={tag_a: res_a.speedup, tag_b: res_b.speedup},
                )
            )
    return rows


def run_fig6_irsmk(configs: tuple[RunConfig, ...] = EVAL_CONFIGS) -> list[SpeedupRow]:
    """IRSmk co-locate vs interleave across inputs and configs (Figure 6)."""
    return _two_way_rows(
        BENCHMARKS["IRSmk"].build,
        ["medium", "large"],
        configs,
        lambda w: colocate_objects(w),
        lambda w: interleave_objects(w),
        "co-locate",
        "interleave",
    )


def run_fig7_streamcluster(configs: tuple[RunConfig, ...] = EVAL_CONFIGS) -> list[SpeedupRow]:
    """Streamcluster replicate vs interleave (Figure 7)."""
    return _two_way_rows(
        BENCHMARKS["Streamcluster"].build,
        ["simlarge", "native"],
        configs,
        lambda w: replicate_objects(w, {"block", "point_p"}),
        lambda w: interleave_objects(w),
        "replicate",
        "interleave",
    )


def run_fig8_lulesh(configs: tuple[RunConfig, ...] = EVAL_CONFIGS) -> list[SpeedupRow]:
    """LULESH co-locate vs interleave (Figure 8)."""
    return _two_way_rows(
        BENCHMARKS["LULESH"].build,
        ["large"],
        configs,
        lambda w: colocate_objects(w),  # heap arrays only; statics untracked
        lambda w: interleave_objects(w),
        "co-locate",
        "interleave",
    )


def run_case_sp(config: RunConfig = RunConfig(64, 4)) -> float:
    """SP: whole-program interleave speedup (Section VIII.F)."""
    machine = Machine()
    base = BENCHMARKS["SP"].build("C")
    return measure_speedup(
        base, interleave_objects(base), machine, config.n_threads, config.n_nodes
    ).speedup


def run_case_blackscholes(config: RunConfig = RunConfig(64, 4)) -> float:
    """Blackscholes: co-locating ``buffer`` buys <1% (Section VIII.G)."""
    machine = Machine()
    base = BENCHMARKS["Blackscholes"].build("native")
    return measure_speedup(
        base, colocate_objects(base, {"buffer"}), machine, config.n_threads, config.n_nodes
    ).speedup
