"""DR-BW's profiler: sampling, channel association, object attribution.

This is Section IV of the paper as a library component:

* run the (simulated) program with PEBS-style address sampling enabled —
  sampling costs cycles, so the profiled run carries a small per-access
  stall (the Table VII overhead model: one interrupt per ``period``
  accesses plus ``malloc``-family interception);
* derive each sample's **source node** from its CPU id and the hardware
  topology, and its **target node** by looking the sampled address up
  through libnuma (Section IV.B) — associating the sample with a directed
  channel;
* attribute each sample to the **data object** whose allocation range
  contains the address (Section IV.C); static/stack data is not tracked,
  so such samples stay unattributed (``object_id == -1``), exactly like
  the paper's tool in the SP and LULESH case studies.

The profiler degrades gracefully under lossy collection: samples whose
address cannot be mapped or whose node lookup transiently fails are
**quarantined** into a structured :class:`DroppedSampleReport` (counted by
reason) instead of aborting the run, and remote channels whose surviving
batch falls below a configurable floor are **re-sampled** with a reseeded
sampler at a progressively shorter period (bounded attempts).  Fault
injection itself lives in :mod:`repro.faults`; set
:attr:`ProfilerConfig.faults` to enable it.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np

from repro.core.features import (
    FeatureVector,
    SampleSet,
    extract_channel_features,
    remote_channel_codes,
)
from repro.errors import WorkloadError
from repro.numasim.machine import Machine
from repro.pmu.sample import MemorySample, RawSampleBatch
from repro.pmu.sampler import AddressSampler, SamplerConfig
from repro.osl.threads import bind_threads_tt_nn
from repro.telemetry import capture_run_timelines, get_telemetry
from repro.types import Channel, MemLevel
from repro.workloads.base import CompiledWorkload, Workload, compile_workload
from repro.workloads.runner import WorkloadRun, run_workload

logger = logging.getLogger(__name__)

__all__ = [
    "ProfilerConfig",
    "DroppedSampleReport",
    "ProfileResult",
    "DrBwProfiler",
]


@dataclass(frozen=True)
class ProfilerConfig:
    """Profiler knobs.

    ``interrupt_cost_cycles`` is the price of one PEBS sample delivery
    (interrupt, record parsing, allocation-table lookup); at the paper's
    1-in-2000 period a ~800-cycle interrupt amortizes to less
    than one cycle per access — inside the <10% overhead the paper reports.

    ``faults`` (a :class:`repro.faults.FaultPlan`, or ``None``) injects
    collection failures; ``resample_floor`` / ``resample_attempts`` bound
    the retry loop that re-samples remote channels whose batch came back
    too thin — each attempt reseeds the sampler and divides the period by
    ``resample_backoff`` (shorter period ⇒ more samples).
    """

    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    interrupt_cost_cycles: float = 800.0
    alloc_intercept_cost_cycles: float = 2000.0
    faults: object | None = None  # repro.faults.FaultPlan, kept untyped to avoid a cycle
    resample_floor: int = 0
    resample_attempts: int = 3
    resample_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.resample_floor < 0 or self.resample_attempts < 0:
            raise ValueError("resample_floor and resample_attempts must be >= 0")
        if self.resample_backoff < 1.0:
            raise ValueError("resample_backoff must be >= 1")

    @property
    def stall_per_access(self) -> float:
        """Amortized sampling cost injected per memory access."""
        return self.interrupt_cost_cycles / self.sampler.period


@dataclass
class DroppedSampleReport:
    """What the profiler lost, and why — the degradation ledger.

    ``quarantined`` counts samples the profiler received but had to
    discard during attribution, by reason; ``injected`` counts the
    perturbations the fault layer reports having applied upstream
    (informational — an injected corruption that still mapped somewhere is
    *not* quarantined, it is a silent mis-attribution, as on real
    hardware).
    """

    observed: int = 0
    kept: int = 0
    quarantined: dict[str, int] = field(default_factory=dict)
    injected: dict[str, int] = field(default_factory=dict)
    resample_attempts: int = 0
    resampled_channels: tuple[Channel, ...] = ()

    @property
    def total_quarantined(self) -> int:
        return sum(self.quarantined.values())

    @property
    def drop_fraction(self) -> float:
        """Fraction of observed samples quarantined (0 when none observed)."""
        return self.total_quarantined / self.observed if self.observed else 0.0

    @property
    def is_clean(self) -> bool:
        """True when nothing was quarantined, injected, or retried."""
        return (
            not self.total_quarantined
            and not any(self.injected.values())
            and self.resample_attempts == 0
        )

    def count(self, reason: str, n: int) -> None:
        if n:
            self.quarantined[reason] = self.quarantined.get(reason, 0) + int(n)


@dataclass
class ProfileResult:
    """Everything DR-BW collected about one profiled execution."""

    workload: Workload
    run: WorkloadRun
    sample_set: SampleSet
    config: ProfilerConfig
    dropped: DroppedSampleReport = field(default_factory=DroppedSampleReport)

    @property
    def samples(self) -> list[MemorySample]:
        """Per-record attributed samples (materialized on demand)."""
        return self.sample_set.to_samples()

    @property
    def compiled(self) -> CompiledWorkload:
        return self.run.compiled

    @property
    def total_cycles(self) -> float:
        """Execution time of the profiled run, in cycles."""
        return self.run.total_cycles

    def channels_with_remote_samples(self) -> list[Channel]:
        """Remote channels that observed at least one remote-DRAM sample."""
        return self.sample_set.remote_channels()

    def features_for(self, channel: Channel) -> FeatureVector:
        """Table I feature vector for one channel."""
        return extract_channel_features(self.sample_set, channel)

    def features_per_channel(self) -> dict[Channel, FeatureVector]:
        """Table I features for every channel with remote-DRAM samples."""
        channels = self.channels_with_remote_samples()
        with get_telemetry().span("features.extract", n_channels=len(channels)):
            return {
                ch: extract_channel_features(self.sample_set, ch)
                for ch in channels
            }


class _CollectionPass:
    """The PEBS sampler and libnuma page table of one collection pass.

    Both are fault-wrapped when ``plan`` is set; this is the one place the
    profiler builds :class:`~repro.faults.FaultyAddressSampler` and
    :class:`~repro.faults.FaultyPageTable`.  A whole run
    (:meth:`DrBwProfiler.profile`) and each interval of a streamed run
    (:meth:`DrBwProfiler.profile_live`) go through the same
    :meth:`lookup`.
    """

    def __init__(self, machine: Machine, page_table, sampler_cfg: SamplerConfig, plan) -> None:
        self.topology = machine.topology
        self.sampler = AddressSampler(
            sampler_cfg, page_table=page_table, latency_model=machine.latency_model
        )
        self.page_table = page_table
        self._faulty_sampler = self._faulty_table = None
        self._seen_failures = 0
        if plan is not None:
            from repro.faults import FaultyAddressSampler, FaultyPageTable

            self.sampler = self._faulty_sampler = FaultyAddressSampler(
                self.sampler, plan, n_cpus=self.topology.n_cpus
            )
            self.page_table = self._faulty_table = FaultyPageTable(page_table, plan)

    def lookup(self, batch: RawSampleBatch, report: DroppedSampleReport) -> np.ndarray:
        """Each sample's target node, ``-1`` where the lookup failed.

        Counts ``batch`` as observed and its failed lookups as quarantined:
        transient libnuma failures (as many as the wrapper injected since
        the last call) vs. addresses that never mapped at all.
        """
        report.observed += len(batch)
        topo = self.topology
        src = (batch.cpu % topo.n_cores) // topo.cores_per_socket
        dst = self.page_table.nodes_of_addresses(
            batch.address, accessor_nodes=src, on_unmapped="ignore"
        )
        n_bad = int((dst < 0).sum())
        transient = 0
        if self._faulty_table is not None:
            failures = self._faulty_table.injected_failures
            transient = min(failures - self._seen_failures, n_bad)
            self._seen_failures = failures
            report.count("lookup_failure", transient)
        report.count("unmapped_address", n_bad - transient)
        return dst

    def fold_injected(self, report: DroppedSampleReport) -> None:
        """Add the perturbations the fault wrappers applied to ``report``."""
        if self._faulty_sampler is None:
            return
        injected = dict(self._faulty_sampler.injected)
        injected["lookup_failure"] = self._faulty_table.injected_failures
        for reason, n in injected.items():
            if n:
                report.injected[reason] = report.injected.get(reason, 0) + n


class DrBwProfiler:
    """Run a workload under DR-BW's sampling profiler."""

    def __init__(self, machine: Machine, config: ProfilerConfig | None = None) -> None:
        self.machine = machine
        self.config = config or ProfilerConfig()

    def profile(
        self,
        workload: Workload,
        n_threads: int,
        n_nodes: int,
        seed: int | None = None,
        run: WorkloadRun | None = None,
    ) -> ProfileResult:
        """Execute ``workload`` with sampling on; return attributed samples.

        ``run`` is an earlier profiled run of this same ``workload`` object
        (a :attr:`ProfileResult.run`).  The simulated execution does not
        depend on the seed — only the PEBS thinning does — so sampling that
        run again at ``seed`` gives the same bytes as simulating afresh,
        without compiling or simulating.  Nothing here modifies the run,
        so concurrent profiles may share it.  A run of another workload,
        another ``Tt-Nn`` binding or another profiling stall raises
        :class:`~repro.errors.WorkloadError`.
        """
        tel = get_telemetry()
        reused = run is not None
        with tel.span(
            "profiler.profile",
            workload=workload.name,
            n_threads=n_threads,
            n_nodes=n_nodes,
            reused=reused,
        ) as sp:
            stall = self.config.stall_per_access
            if run is None:
                run = run_workload(
                    workload,
                    self.machine,
                    n_threads=n_threads,
                    n_nodes=n_nodes,
                    extra_stall_cycles_per_access=stall,
                )
            elif (
                run.compiled.workload is not workload
                or run.compiled.bindings
                != bind_threads_tt_nn(self.machine.topology, n_threads, n_nodes)
                or run.result.extra_stall_cycles != stall
            ):
                raise WorkloadError(
                    f"run of {run.compiled.workload.name!r} at stall "
                    f"{run.result.extra_stall_cycles} is not {workload.name!r} "
                    f"bound T{n_threads}-N{n_nodes} at stall {stall}"
                )
            sampler_cfg = self.config.sampler
            if seed is not None:
                sampler_cfg = dataclasses.replace(sampler_cfg, seed=seed)

            report = DroppedSampleReport()
            batch, dst = self._collect(run, sampler_cfg, report, attempt=0)
            fields = self._attribute(batch, dst, report)
            fields = self._resample_thin_channels(run, sampler_cfg, fields, report)
            tel.metrics.counter("profiler.run_reused").inc(int(reused))
            return self._finish(tel, sp, workload, run, fields, report)

    def profile_live(
        self,
        workload: Workload,
        n_threads: int,
        n_nodes: int,
        monitor,
        seed: int | None = None,
        interval_cycles: float | None = None,
    ) -> ProfileResult:
        """Profile ``workload`` while streaming samples into ``monitor``.

        The streaming counterpart of :meth:`profile`: instead of thinning
        the run's access buckets after it finishes, the engine's interval
        hook delivers per-interval access rates *during* execution; each
        interval is sampled, attributed, and pushed into ``monitor`` (any
        object with an ``observe_interval(record, fields, observed=...,
        quarantined=...)`` method — canonically
        :class:`repro.monitor.LiveMonitor`) before the next interval is
        simulated.  Per-interval Poisson thinning is distributionally
        identical to end-of-run thinning, so the returned
        :class:`ProfileResult` carries the same sample statistics as the
        batch path.  Both paths share one collection pass: the same
        (fault-wrapped) sampler and page table, libnuma lookup, quarantine
        split and attribution, with object ids looked up on first read.
        The streamed ``fields`` carry no object ids, and no per-interval
        spans are recorded.

        ``interval_cycles`` bounds the monitoring interval length (defaults
        to ``monitor.interval_cycles`` when the monitor declares one, else
        one interval per stationary span).  Thin-channel resampling is a
        post-hoc repair and deliberately does not run in streaming mode —
        degraded channels surface through the monitor's verdict/alert
        stream instead.
        """
        tel = get_telemetry()
        with tel.span(
            "profiler.profile_live",
            workload=workload.name,
            n_threads=n_threads,
            n_nodes=n_nodes,
        ) as sp:
            bindings = bind_threads_tt_nn(self.machine.topology, n_threads, n_nodes)
            compiled = compile_workload(workload, self.machine.topology, bindings)
            sampler_cfg = self.config.sampler
            if seed is not None:
                sampler_cfg = dataclasses.replace(sampler_cfg, seed=seed)
            collection = _CollectionPass(
                self.machine, compiled.page_table, sampler_cfg, self.config.faults
            )
            if interval_cycles is None:
                interval_cycles = getattr(monitor, "interval_cycles", None)

            report = DroppedSampleReport()
            chunks: list[dict[str, np.ndarray]] = []

            def on_interval(record) -> None:
                batch = collection.sampler.sample_interval(record)
                dst = collection.lookup(batch, report)
                fields = self._attribute_inner(batch, dst, report)
                chunks.append(fields)
                monitor.observe_interval(
                    record,
                    fields,
                    observed=len(batch),
                    quarantined=len(batch) - fields["address"].shape[0],
                )

            result = self.machine.run(
                compiled.programs,
                barriers=workload.barriers,
                extra_stall_cycles_per_access=self.config.stall_per_access,
                interval_listener=on_interval,
                interval_max_cycles=interval_cycles,
            )
            run = WorkloadRun(compiled=compiled, result=result)
            collection.fold_injected(report)
            empty = self._attribute_inner(
                RawSampleBatch.empty(), np.zeros(0, dtype=np.int64), report
            )
            fields = {
                name: np.concatenate([empty[name], *(c[name] for c in chunks)])
                for name in empty
            }
            profile = self._finish(tel, sp, workload, run, fields, report)
            sp.set(intervals=len(chunks))
            finalize = getattr(monitor, "finalize", None)
            if finalize is not None:
                finalize(run)
            return profile

    def measure_overhead(
        self, workload: Workload, n_threads: int, n_nodes: int
    ) -> tuple[float, float, float]:
        """(cycles without profiling, cycles with, overhead fraction).

        The Table VII experiment: the same run with sampling off and on.
        """
        plain = run_workload(workload, self.machine, n_threads, n_nodes)
        profiled = run_workload(
            workload,
            self.machine,
            n_threads,
            n_nodes,
            extra_stall_cycles_per_access=self.config.stall_per_access,
        )
        overhead = profiled.total_cycles / plain.total_cycles - 1.0
        return plain.total_cycles, profiled.total_cycles, overhead

    # -- internals ----------------------------------------------------------------

    def _finish(
        self,
        tel,
        sp,
        workload: Workload,
        run: WorkloadRun,
        fields: dict[str, np.ndarray],
        report: DroppedSampleReport,
    ) -> ProfileResult:
        """Seal the ledger, annotate the profile span ``sp``, record the
        telemetry and wrap the attributed samples of ``run``.

        Object ids are looked up on the final addresses when first read
        (see :meth:`SampleSet.from_arrays`).
        """
        report.kept = int(fields["address"].shape[0])
        sp.set(observed=report.observed, kept=report.kept)
        if tel.enabled:
            self._record_metrics(tel, fields, report)
            # Snapshot, don't accumulate: a session may profile many runs
            # (training collects 192), and the artifact's timeline view is
            # of the *measured* run — always the last one.
            tel.timelines[:] = capture_run_timelines(run.result)
        return ProfileResult(
            workload=workload,
            run=run,
            sample_set=SampleSet.from_arrays(
                **fields, object_id=run.compiled.allocator.object_ids_of_addresses
            ),
            config=self.config,
            dropped=report,
        )

    def _record_metrics(
        self, tel, fields: dict[str, np.ndarray], report: DroppedSampleReport
    ) -> None:
        """Push the profile's sample statistics into the metrics registry.

        Everything here is vectorized over the final attributed batch;
        the per-channel loop runs once per observed remote channel (a
        dozen entries on the 4-socket default machine).
        """
        m = tel.metrics
        m.counter("profiler.samples.observed").inc(report.observed)
        m.counter("profiler.samples.kept").inc(report.kept)
        for reason, n in report.quarantined.items():
            m.counter(f"profiler.quarantined.{reason}").inc(n)
        for reason, n in report.injected.items():
            if n:
                m.counter(f"profiler.injected.{reason}").inc(n)
        m.counter("profiler.resample.attempts").inc(report.resample_attempts)
        m.counter("profiler.resample.channels").inc(len(report.resampled_channels))

        levels, counts = np.unique(fields["level"], return_counts=True)
        for lvl, n in zip(levels, counts):
            name = MemLevel(int(lvl)).name.lower()
            m.counter(f"profiler.samples.level.{name}").inc(int(n))

        remote, codes, k = remote_channel_codes(
            fields["src_node"], fields["dst_node"], fields["level"]
        )
        lat = fields["latency"][remote]
        distinct, _ = np.unique(codes, return_counts=True)
        for code in distinct.tolist():
            s, d = divmod(code, k)
            m.histogram(f"profiler.remote_latency.{s}->{d}").observe_many(
                lat[codes == code]
            )

    def _collect(
        self,
        run: WorkloadRun,
        sampler_cfg: SamplerConfig,
        report: DroppedSampleReport,
        attempt: int,
    ) -> tuple[RawSampleBatch, np.ndarray]:
        """One sampling pass: the (possibly faulted) batch plus each
        sample's target node from the page-table lookup, ``-1`` where the
        lookup failed."""
        with get_telemetry().span("profiler.collect", attempt=attempt) as sp:
            batch, dst = self._collect_inner(run, sampler_cfg, report, attempt)
            sp.set(observed=len(batch), lookup_failed=int((dst < 0).sum()))
            return batch, dst

    def _collect_inner(
        self,
        run: WorkloadRun,
        sampler_cfg: SamplerConfig,
        report: DroppedSampleReport,
        attempt: int,
    ) -> tuple[RawSampleBatch, np.ndarray]:
        plan = self.config.faults
        if plan is not None and attempt:
            plan = plan.with_seed(plan.seed + 7919 * attempt)
        collection = _CollectionPass(
            self.machine, run.compiled.page_table, sampler_cfg, plan
        )
        batch = collection.sampler.sample_run_batch(run.result)
        dst = collection.lookup(batch, report)
        collection.fold_injected(report)
        return batch, dst

    def _attribute(
        self,
        batch: RawSampleBatch,
        dst: np.ndarray,
        report: DroppedSampleReport,
    ) -> dict[str, np.ndarray]:
        """Vectorized channel association + data-object attribution.

        Source nodes come from CPU ids and the topology; target nodes
        (``dst``) from :meth:`_collect`'s libnuma page-table lookup.  Object
        ids (the allocation table's range index: heap objects only, -1
        otherwise) are looked up on the final addresses when first read
        (see :meth:`SampleSet.from_arrays`).  Samples whose lookup failed
        (``dst < 0``) are quarantined (already counted by :meth:`_collect`)
        rather than crashing the columnar SampleSet.  A faulty page table only turns
        lookups into ``-1``, so every surviving ``dst`` is the real
        table's answer and one lookup per batch suffices.
        """
        with get_telemetry().span("profiler.attribute", n_samples=len(batch)):
            return self._attribute_inner(batch, dst, report)

    def _attribute_inner(
        self,
        batch: RawSampleBatch,
        dst: np.ndarray,
        report: DroppedSampleReport,
    ) -> dict[str, np.ndarray]:
        topo = self.machine.topology
        lookup_failed = dst < 0
        if np.any(lookup_failed):
            batch = batch.select(~lookup_failed)
            dst = dst[~lookup_failed]
        cores = batch.cpu % topo.n_cores
        src = cores // topo.cores_per_socket
        return {
            "address": batch.address,
            "cpu": batch.cpu,
            "thread_id": batch.thread_id,
            "level": batch.level,
            "latency": batch.latency,
            "src_node": np.asarray(src, dtype=np.int64),
            "dst_node": dst,
        }

    def _resample_thin_channels(
        self,
        run: WorkloadRun,
        sampler_cfg: SamplerConfig,
        fields: dict[str, np.ndarray],
        report: DroppedSampleReport,
    ) -> dict[str, np.ndarray]:
        """Re-sample remote channels whose batch fell below the floor.

        Bounded attempts; each attempt reseeds the sampler and divides the
        period by ``resample_backoff`` so the retry collects more records
        per access.  Only samples landing on the deficient channels are
        merged in — healthy channels keep their first-pass statistics.
        """
        cfg = self.config
        if cfg.resample_floor <= 0 or cfg.resample_attempts <= 0:
            return fields

        def thin_channels(f: dict[str, np.ndarray]) -> set[tuple[int, int]]:
            _, codes, k = remote_channel_codes(f["src_node"], f["dst_node"], f["level"])
            uniq, counts = np.unique(codes, return_counts=True)
            return {
                divmod(code, k)
                for code, c in zip(uniq.tolist(), counts.tolist())
                if c < cfg.resample_floor
            }

        deficient = thin_channels(fields)
        resample_span = get_telemetry().span(
            "profiler.resample", floor=cfg.resample_floor
        )
        with resample_span as sp:
            fields, attempt, retried = self._resample_loop(
                run, sampler_cfg, fields, report, deficient, thin_channels
            )
            sp.set(attempts=attempt, channels=len(retried))

        report.resample_attempts = attempt
        report.resampled_channels = tuple(Channel(s, d) for s, d in sorted(retried))
        return fields

    def _resample_loop(
        self,
        run: WorkloadRun,
        sampler_cfg: SamplerConfig,
        fields: dict[str, np.ndarray],
        report: DroppedSampleReport,
        deficient: set[tuple[int, int]],
        thin_channels,
    ) -> tuple[dict[str, np.ndarray], int, set[tuple[int, int]]]:
        cfg = self.config
        attempt = 0
        retried: set[tuple[int, int]] = set()
        while deficient and attempt < cfg.resample_attempts:
            attempt += 1
            retry_cfg = dataclasses.replace(
                sampler_cfg,
                seed=sampler_cfg.seed + 7919 * attempt,
                period=max(1, int(sampler_cfg.period / cfg.resample_backoff**attempt)),
            )
            logger.info(
                "resampling %d thin channel(s) (attempt %d, period %d)",
                len(deficient), attempt, retry_cfg.period,
            )
            extra_report = DroppedSampleReport()
            batch, dst = self._collect(run, retry_cfg, extra_report, attempt)
            extra = self._attribute(batch, dst, extra_report)
            for reason, n in extra_report.quarantined.items():
                report.count(reason, n)
            for reason, n in extra_report.injected.items():
                report.injected[reason] = report.injected.get(reason, 0) + n
            report.observed += extra_report.observed

            on_deficient = np.zeros(extra["address"].shape[0], dtype=bool)
            for s, d in deficient:
                on_deficient |= (extra["src_node"] == s) & (extra["dst_node"] == d)
            if np.any(on_deficient):
                fields = {
                    name: np.concatenate([fields[name], extra[name][on_deficient]])
                    for name in fields
                }
            retried |= deficient
            deficient = {ch for ch in thin_channels(fields) if ch in deficient}
        return fields, attempt, retried
