"""Piecewise-stationary NUMA execution engine.

The engine executes *thread programs* — sequences of phases, each phase a
stationary mix of access streams — against the machine's bandwidth and
latency models.  Between two scheduling events (a thread finishing its
phase) the system is stationary, so the engine:

1. computes each runnable thread's uncontended issue rate from the
   analytical cache model and base latencies;
2. derives the DRAM traffic flows each thread pushes onto memory
   controllers and interconnect channels;
3. solves the demand-bounded max-min fair allocation
   (:func:`repro.numasim.fairness.water_fill`) to obtain per-resource
   utilizations;
4. inflates access latencies with the queueing model and re-derives issue
   rates, iterating the rate/utilization fixed point with damping;
5. advances simulated time exactly to the next phase completion, recording
   per-channel traffic and per-(thread, stream, level, node) access
   buckets for the PMU sampler.

Contention is emergent: nothing in the engine knows about "good" or "rmc"
labels — a saturated channel simply inflates remote latencies and throttles
the threads crossing it, which is precisely what DR-BW's features observe.

The solver/recorder is the columnar kernel: each stationary span is laid
out as parallel numpy columns (one row per (thread, stream, level, dst)
combination) and the fixed point is evaluated with vectorized latency
math.  SPMD threads are mostly symmetric, so the fixed point runs over
*thread classes* — threads whose every rate-relevant resolved input is
equal get bit-identical rates — and over flow groups, the flows of a
class folded by traffic and resources; the class rates are expanded back
to threads for recording.  Its bit-exact behaviour is pinned by the
interval goldens, the per-thread differential oracle in
``tests/engine/test_class_solve.py`` and the determinism sweep in
``tests/engine/`` (see docs/performance.md).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError, WorkloadError
from repro.numasim.cachemodel import (
    CacheModel,
    EffectiveCaches,
    PatternKind,
    StreamProfile,
)
from repro.numasim.fairness import FlowGroups, water_fill
from repro.numasim.interconnect import InterconnectFabric
from repro.numasim.latency import LatencyModel, LatencyTable, queueing_delay_factor
from repro.numasim.memctrl import DEFAULT_HISTORY_LIMIT, MemoryControllerSet
from repro.numasim.topology import NumaTopology
from repro.telemetry import get_telemetry
from repro.types import Channel, MemLevel

logger = logging.getLogger(__name__)

__all__ = [
    "EngineStream",
    "EnginePhase",
    "ThreadProgram",
    "BucketColumns",
    "BucketRates",
    "IntervalRecord",
    "PhaseTiming",
    "RunResult",
    "ExecutionEngine",
]

_EPS = 1e-9
_RATE_ITERATIONS = 8
_RATE_DAMPING = 0.5


@dataclass(frozen=True)
class EngineStream:
    """One stationary access stream of a phase.

    ``weight`` is the fraction of the phase's accesses issued to this
    stream; ``node_fractions[n]`` is the share of this stream's DRAM
    traffic that targets NUMA node ``n`` (derived from page placement).
    ``region_base``/``region_bytes`` delimit the (virtual) address range the
    stream touches, used by the PMU sampler to fabricate sample addresses.
    """

    object_id: int
    region_base: int
    region_bytes: int
    profile: StreamProfile
    weight: float
    node_fractions: np.ndarray
    #: True when every thread on a socket reads the *same* region (a shared
    #: object): one copy serves them all, so the stream sees the full L3
    #: rather than a per-thread share.
    shared: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise WorkloadError(f"stream weight must be in (0, 1]: {self.weight}")
        nf = self.node_fractions
        if type(nf) is not np.ndarray or nf.dtype != np.float64:
            nf = np.asarray(nf, dtype=np.float64)
        if nf.ndim != 1 or nf.size == 0:
            raise WorkloadError("node_fractions must be a non-empty 1-D array")
        if (nf < -1e-12).any() or abs(float(nf.sum()) - 1.0) > 1e-6:
            raise WorkloadError(f"node_fractions must be a distribution, got {nf}")
        if self.region_bytes <= 0:
            raise WorkloadError("region_bytes must be positive")
        object.__setattr__(self, "node_fractions", nf.clip(0.0, 1.0))


@dataclass(frozen=True)
class EnginePhase:
    """A stationary phase: ``n_accesses`` spread over ``streams``."""

    name: str
    n_accesses: float
    compute_cycles_per_access: float
    streams: tuple[EngineStream, ...]

    def __post_init__(self) -> None:
        if self.n_accesses < 0:
            raise WorkloadError("n_accesses must be >= 0")
        if self.compute_cycles_per_access < 0:
            raise WorkloadError("compute_cycles_per_access must be >= 0")
        if self.n_accesses > 0:
            if not self.streams:
                raise WorkloadError(f"phase {self.name!r} has accesses but no streams")
            total = sum(s.weight for s in self.streams)
            if abs(total - 1.0) > 1e-6:
                raise WorkloadError(
                    f"phase {self.name!r}: stream weights sum to {total}, expected 1"
                )


@dataclass(frozen=True)
class ThreadProgram:
    """The phases one software thread executes, bound to logical CPU ``cpu``."""

    thread_id: int
    cpu: int
    phases: tuple[EnginePhase, ...]


@dataclass(frozen=True, slots=True)
class BucketColumns:
    """Columnar store of a run's sample buckets, one numpy array per field.

    Rows are emitted in canonical (sorted-key) order by the engine's
    bucket finalization, so two runs that accumulated the same buckets
    serialize identically regardless of accumulation insertion order.
    The PMU sampler thins these columns directly.  ``dst_node`` is
    meaningful for DRAM levels (the node whose controller served the
    access); for cache levels it equals the source node.
    """

    thread_id: np.ndarray
    cpu: np.ndarray
    src_node: np.ndarray
    object_id: np.ndarray
    region_base: np.ndarray
    region_bytes: np.ndarray
    level: np.ndarray  # MemLevel integer codes
    dst_node: np.ndarray
    n_accesses: np.ndarray
    mean_latency: np.ndarray

    def __len__(self) -> int:
        return int(self.thread_id.shape[0])


@dataclass(frozen=True)
class BucketRates:
    """Columnar per-cycle access rates of one stationary span.

    One row per (thread, stream, level, dst) combination the span's solver
    resolved; ``rate[i]`` is accesses/cycle, so a slice of ``dt`` cycles
    contributes ``rate[i] * dt`` accesses at ``latency[i]``.  Shared by
    every :class:`IntervalRecord` sliced out of the span, so per-slice
    consumers (the PMU sampler's streaming path) can thin the whole row
    set with one vectorized draw instead of materializing buckets.
    """

    thread_id: np.ndarray
    cpu: np.ndarray
    src_node: np.ndarray
    object_id: np.ndarray
    region_base: np.ndarray
    region_bytes: np.ndarray
    level: np.ndarray
    dst_node: np.ndarray
    rate: np.ndarray
    latency: np.ndarray

    def __len__(self) -> int:
        return int(self.rate.shape[0])


@dataclass(frozen=True)
class IntervalRecord:
    """One monitoring interval emitted by the engine's streaming hook.

    Produced only when a listener is attached (see
    :meth:`ExecutionEngine.run`); the batch path never builds these.
    ``node_bytes[d]`` is DRAM traffic served by node ``d`` during the
    interval; ``channel_bytes`` the per-directed-channel share of it.
    """

    index: int
    start_cycle: float
    duration_cycles: float
    node_bytes: np.ndarray
    channel_bytes: dict[Channel, float]
    rates: BucketRates

    @property
    def end_cycle(self) -> float:
        return self.start_cycle + self.duration_cycles


@dataclass(frozen=True)
class PhaseTiming:
    """Wall-clock (cycle) extent of one named phase across all threads."""

    name: str
    start_cycle: float
    end_cycle: float

    @property
    def duration_cycles(self) -> float:
        return self.end_cycle - self.start_cycle


@dataclass
class RunResult:
    """Everything the profiler and evaluation harness need from one run."""

    topology: NumaTopology
    total_cycles: float
    thread_finish_cycles: dict[int, float]
    phase_timings: list[PhaseTiming]
    bucket_columns: BucketColumns
    memctrl: MemoryControllerSet
    interconnect: InterconnectFabric
    #: Extra stall injected per access (profiling overhead model), cycles.
    extra_stall_cycles: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.topology.cycles_to_seconds(self.total_cycles)

    def channel_bytes(self) -> dict[Channel, float]:
        """Cumulative traffic per remote channel."""
        return {c: self.interconnect.total_bytes(c) for c in self.interconnect.channels}

    def phase_cycles(self, name: str) -> float:
        """Total cycles spent in phases named ``name`` (summed over repeats)."""
        return sum(t.duration_cycles for t in self.phase_timings if t.name == name)


@dataclass
class _ThreadState:
    program: ThreadProgram
    phase_idx: int = 0
    remaining: float = 0.0
    finish_cycle: float = 0.0

    def current_phase(self) -> EnginePhase | None:
        if self.phase_idx >= len(self.program.phases):
            return None
        return self.program.phases[self.phase_idx]


@dataclass
class _StreamCtx:
    """Resolved state of one stream of a thread class."""

    stream: EngineStream
    src_node: int
    fractions: dict[MemLevel, float]
    dram_bytes_per_access: float
    mlp: float


@dataclass
class _ClassCtx:
    """Resolved state of one thread class, read from its first thread."""

    compute_cycles_per_access: float
    streams: list[_StreamCtx]


class _SpanFlows:
    """DRAM/link flow table of one stationary span.

    Per-flow columns (one flow per (thread, stream, dst) with traffic, in
    canonical thread order) feed the recorders; the fixed point arbitrates
    ``groups``, the flows folded by (thread class, traffic coefficient,
    resources).  A class's groups are contiguous, starting at
    ``group_starts`` for the classes ``group_first``.
    """

    __slots__ = (
        "capacities", "n_links",
        "flow_thread", "flow_coeff", "flow_dst", "flow_chan", "n_flows",
        "groups", "group_class", "group_coeff", "group_starts", "group_first",
    )


class _SpanLayout:
    """Columnar row layout of one stationary span.

    The fixed point prices *class rows*: one per (class, stream, level,
    dst) combination of each class's streams.  ``prog`` is the per-class
    rate program evaluated by ``_rates_at``: a list of
    ``(compute_cycles_per_access, streams)`` where each stream entry is
    ``(weight, mlp, terms)`` and each term ``(frac, row_idx, sub)`` —
    ``sub`` is ``None`` for a direct level or a list of
    ``(nf_share, row_idx)`` pairs averaging remote targets.  Latency rows
    split into constant (cache) and DRAM groups; the DRAM group carries
    the precomputed pipe/queue decomposition from
    :class:`~repro.numasim.latency.LatencyTable` so one vectorized
    expression prices every class row per fixed-point iteration.

    The recorders read *thread rows*: one per (thread, stream, level, dst)
    combination, in the fixed canonical visit order (threads, then
    streams, then ``fractions`` insertion order, then ascending remote
    dst) the goldens are pinned to.  A thread's rows repeat its class's
    rows (``row_template`` maps each thread row to its class row) with
    the thread's own identity columns.
    """

    __slots__ = (
        "prog",
        # class-row latency evaluation
        "row_lat0", "dram_idx", "dram_pipe", "dram_mcpart", "dram_node",
        "rem_pos", "rem_linkpart", "rem_link", "rand_pos",
        # thread-row bucket/rate emission
        "row_template", "row_thread", "w", "f", "m1", "d1",
        "key_prefix", "bucket_ok", "all_ok",
        "tid", "cpu", "src", "obj", "rbase", "rbytes", "lvl", "dst",
        "n_rows",
    )


class _SpanPlan:
    """Solved state of one stationary span under the columnar kernel."""

    __slots__ = ("rates", "n_classes", "layout", "flows", "final_latency")


def _repeat_class_rows(
    class_start: list[int], n_class_rows: int, thread_class: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-class rows to per-thread rows, threads in order.

    Class ``c`` owns rows ``class_start[c]`` up to the next class's start
    (or ``n_class_rows``).  Returns, for each thread row, the class row it
    repeats, and the number of rows of each thread.
    """
    tc = np.array(thread_class, dtype=np.int64)
    bounds = np.array(class_start + [n_class_rows], dtype=np.int64)
    per_thread = (bounds[1:] - bounds[:-1])[tc]
    first = np.cumsum(per_thread) - per_thread  # each thread's first row
    return np.arange(int(per_thread.sum())) + np.repeat(bounds[tc] - first, per_thread), per_thread


class ExecutionEngine:
    """Runs thread programs to completion on a simulated NUMA machine."""

    def __init__(
        self,
        topology: NumaTopology,
        latency_model: LatencyModel | None = None,
        cache_model: CacheModel | None = None,
        barriers: bool = True,
        link_capacity_overrides: dict[Channel, float] | None = None,
        history_limit: int | None = None,
    ) -> None:
        self.topology = topology
        self.latency_model = latency_model or LatencyModel()
        self.cache_model = cache_model or CacheModel()
        self.barriers = barriers
        self._link_overrides = link_capacity_overrides
        #: Per-(src, dst, level) latency constants, folded once from the
        #: model so the columnar kernel never re-derives them per span.
        self.latency_table = LatencyTable(self.latency_model, topology)
        #: Memo for ``cache_model.level_fractions`` keyed by
        #: (profile, effective cache sizes) — the model is pure, and spans
        #: of a steady workload re-resolve the same handful of splits.
        self._lf_cache: dict[tuple, object] = {}
        # Flow-table constants are topology-fixed: build the channel index
        # and resource-capacity vector once instead of per span.
        fabric_channels = topology.remote_channels()
        self._fabric_ch_index = {c: i for i, c in enumerate(fabric_channels)}
        self._fabric_n_links = len(fabric_channels)
        n_nodes = topology.n_sockets
        caps = np.concatenate(
            [
                np.full(n_nodes, topology.dram_bw_bytes_per_cycle),
                np.full(self._fabric_n_links, topology.link_bw_bytes_per_cycle),
            ]
        )
        if link_capacity_overrides:
            for ch, cap in link_capacity_overrides.items():
                caps[n_nodes + self._fabric_ch_index[ch]] = cap
        self._fabric_capacities = caps
        #: Retention cap for raw per-interval utilization records on the
        #: run's memory controllers and interconnect fabric (``None`` uses
        #: their shared default) — running aggregates are never capped.
        self.history_limit = (
            history_limit if history_limit is not None else DEFAULT_HISTORY_LIMIT
        )

    # -- public API -----------------------------------------------------------

    def run(
        self,
        programs: list[ThreadProgram],
        extra_stall_cycles_per_access: float = 0.0,
        interval_listener=None,
        interval_max_cycles: float | None = None,
    ) -> RunResult:
        """Execute ``programs`` and return the full run record.

        ``extra_stall_cycles_per_access`` injects a uniform per-access slowdown
        used by the profiling-overhead model (Table VII): sampling interrupts
        and allocation interception steal cycles from every thread.

        ``interval_listener``, when given, is called with an
        :class:`IntervalRecord` for every monitoring interval *while the run
        executes* — the streaming hook live monitoring builds on.  The system
        is stationary between phase completions, so slicing a span at
        ``interval_max_cycles`` (when set) only refines reporting
        granularity: per-slice traffic and access counts are exact linear
        shares of the span, and the batch-path accounting (buckets,
        utilization histories, timings) is untouched.  Listener exceptions
        propagate and abort the run.
        """
        tel = get_telemetry()
        with tel.span("engine.run", n_threads=len(programs)) as sp:
            result, (n_spans, n_threads, n_classes) = self._run(
                programs,
                extra_stall_cycles_per_access,
                interval_listener=interval_listener,
                interval_max_cycles=interval_max_cycles,
            )
            if tel.enabled:
                n_intervals = result.memctrl.n_intervals
                sp.set(
                    intervals=n_intervals,
                    total_cycles=round(result.total_cycles, 1),
                )
                tel.metrics.counter("engine.runs").inc()
                tel.metrics.counter("engine.intervals").inc(n_intervals)
                # Solved spans, the threads they ran and the symmetry
                # classes the solver priced in their place.
                tel.metrics.counter("engine.spans").inc(n_spans)
                tel.metrics.counter("engine.span_threads").inc(n_threads)
                tel.metrics.counter("engine.span_classes").inc(n_classes)
                logger.debug(
                    "engine run: %d threads, %d intervals, %.0f cycles",
                    len(programs), n_intervals, result.total_cycles,
                )
            return result

    def _run(
        self,
        programs: list[ThreadProgram],
        extra_stall_cycles_per_access: float,
        interval_listener=None,
        interval_max_cycles: float | None = None,
    ) -> tuple[RunResult, tuple[int, int, int]]:
        """Execute ``programs``; also return the (spans, span threads,
        span classes) solve counts."""
        if interval_max_cycles is not None and interval_max_cycles <= 0:
            raise SimulationError(
                f"interval_max_cycles must be positive, got {interval_max_cycles}"
            )
        if not programs:
            raise SimulationError("no thread programs to run")
        seen = set()
        for p in programs:
            if p.thread_id in seen:
                raise SimulationError(f"duplicate thread id {p.thread_id}")
            seen.add(p.thread_id)
            if not 0 <= p.cpu < self.topology.n_cpus:
                raise SimulationError(f"thread {p.thread_id} bound to bad cpu {p.cpu}")

        memctrl = MemoryControllerSet(self.topology, history_limit=self.history_limit)
        fabric = InterconnectFabric(
            self.topology, self._link_overrides, history_limit=self.history_limit
        )

        states = [_ThreadState(program=p) for p in programs]
        for st in states:
            self._enter_phase(st)

        now = 0.0
        bucket_acc: dict[tuple, list[float]] = {}
        phase_spans: dict[tuple[int, str], list[float]] = {}  # (group, name) -> [start, end]
        guard = 0
        max_events = sum(len(p.phases) for p in programs) * 4 + 64
        interval_index = 0
        span_threads = span_classes = 0

        while True:
            runnable = self._runnable(states)
            if not runnable:
                if all(st.current_phase() is None for st in states):
                    break
                raise SimulationError("deadlock: unfinished threads but none runnable")

            plan = self._solve_span_columnar(runnable, extra_stall_cycles_per_access)
            rates = plan.rates
            span_threads += len(runnable)
            span_classes += plan.n_classes

            # Time to the next phase completion among runnable threads.
            dts = [
                st.remaining / max(rate, _EPS)
                for st, rate in zip(runnable, rates)
            ]
            dt = min(dts)
            if not math.isfinite(dt) or dt < 0:
                raise SimulationError(f"bad interval length {dt}")
            dt = max(dt, _EPS)

            self._record_span_columnar(
                now, dt, runnable, plan, memctrl, fabric, bucket_acc, phase_spans
            )
            if interval_listener is not None:
                span_tbl = self._span_rates_columnar(plan, fabric)
                interval_index = self._emit_slices(
                    interval_listener,
                    interval_index,
                    now,
                    dt,
                    span_tbl,
                    fabric,
                    interval_max_cycles,
                )

            now += dt
            for st, rate in zip(runnable, rates):
                st.remaining -= rate * dt
                if st.remaining <= _EPS * max(1.0, rate * dt):
                    st.remaining = 0.0
                    st.finish_cycle = now
                    st.phase_idx += 1
                    self._enter_phase(st)

            guard += 1
            if guard > max_events:
                raise SimulationError("engine exceeded its event budget")

        result = RunResult(
            topology=self.topology,
            total_cycles=now,
            thread_finish_cycles={st.program.thread_id: st.finish_cycle for st in states},
            phase_timings=self._phase_timings(phase_spans),
            bucket_columns=self._finalize_bucket_columns(bucket_acc),
            memctrl=memctrl,
            interconnect=fabric,
            extra_stall_cycles=extra_stall_cycles_per_access,
        )
        return result, (guard, span_threads, span_classes)

    # -- scheduling -------------------------------------------------------------

    def _enter_phase(self, st: _ThreadState) -> None:
        """Load the next non-empty phase's work counter (skipping empty ones)."""
        while True:
            phase = st.current_phase()
            if phase is None:
                return
            if phase.n_accesses > 0:
                st.remaining = phase.n_accesses
                return
            st.phase_idx += 1

    def _runnable(self, states: list[_ThreadState]) -> list[_ThreadState]:
        alive = [st for st in states if st.current_phase() is not None]
        if not alive:
            return []
        if not self.barriers:
            return alive
        group = min(st.phase_idx for st in alive)
        return [st for st in alive if st.phase_idx == group]

    # -- shared span setup (both kernels) --------------------------------------

    def _build_ctxs(
        self, runnable: list[_ThreadState]
    ) -> tuple[list[_ClassCtx], list[int]]:
        """Resolve cache splits and DRAM fractions once per thread class.

        Two threads share a class when every value the rate program and
        the flow table read for them is equal: the phase's compute cost,
        the source node and, per stream in order, the profile, weight,
        page placement, sharing, localized level fractions, DRAM bytes per
        access and MLP.  Keying on the resolved values (cache shares
        included) makes the key complete by construction, so the threads
        of a class get the same rates bit for bit and the solver prices
        one of them.  Resolution is a pure function of the compute cost,
        the source node, the core and socket load and the streams'
        (profile, weight, placement, sharing), so a thread whose inputs
        equal an earlier thread's takes that thread's class unresolved.

        Returns each class's resolved state, read from its first thread
        and in order of first appearance, and each thread's class.
        """
        topo = self.topology

        # Cache sharing: private L1/L2 split between active SMT siblings,
        # L3 split between active threads on the socket.
        core_load: dict[int, int] = {}
        socket_load: dict[int, int] = {}
        for st in runnable:
            core = topo.core_of_cpu(st.program.cpu)
            node = topo.node_of_cpu(st.program.cpu)
            core_load[core] = core_load.get(core, 0) + 1
            socket_load[node] = socket_load.get(node, 0) + 1

        lf_cache = self._lf_cache
        class_ctxs: list[_ClassCtx] = []
        classes: dict[tuple, int] = {}  # resolved values -> class
        resolved: dict[tuple, int] = {}  # resolution inputs -> class
        thread_class: list[int] = []
        for st in runnable:
            phase = st.current_phase()
            assert phase is not None
            core = topo.core_of_cpu(st.program.cpu)
            node = topo.node_of_cpu(st.program.cpu)
            inputs = (
                phase.compute_cycles_per_access, node, core_load[core], socket_load[node],
                *[
                    (s.profile, s.weight, s.node_fractions.tobytes(), s.shared)
                    for s in phase.streams
                ],
            )
            cls = resolved.get(inputs)
            if cls is not None:
                thread_class.append(cls)
                continue
            caches = EffectiveCaches(
                l1_bytes=topo.l1.size_bytes / core_load[core],
                l2_bytes=topo.l2.size_bytes / core_load[core],
                l3_bytes=topo.l3.size_bytes / max(1, socket_load[node]),
            )
            # A thread's private streams compete for its cache share in
            # proportion to their footprints (29 equal arrays each get 1/29
            # of the share, not the whole of it).  Shared streams see the
            # full socket L3 — one resident copy serves every thread.
            private_ws = sum(
                s.profile.working_set_bytes for s in phase.streams if not s.shared
            )
            per_thread: list[_StreamCtx] = []
            key: list = [phase.compute_cycles_per_access, node]
            for stream in phase.streams:
                if stream.shared:
                    stream_caches = EffectiveCaches(
                        l1_bytes=caches.l1_bytes,
                        l2_bytes=caches.l2_bytes,
                        l3_bytes=float(topo.l3.size_bytes),
                    )
                else:
                    frac = (
                        stream.profile.working_set_bytes / private_ws
                        if private_ws > 0
                        else 1.0
                    )
                    stream_caches = EffectiveCaches(
                        l1_bytes=max(caches.l1_bytes * frac, 1.0),
                        l2_bytes=max(caches.l2_bytes * frac, 1.0),
                        l3_bytes=max(caches.l3_bytes * frac, 1.0),
                    )
                lf_key = (
                    stream.profile,
                    stream_caches.l1_bytes,
                    stream_caches.l2_bytes,
                    stream_caches.l3_bytes,
                )
                lf = lf_cache.get(lf_key)
                if lf is None:
                    if len(lf_cache) > 4096:
                        lf_cache.clear()
                    lf = self.cache_model.level_fractions(stream.profile, stream_caches)
                    lf_cache[lf_key] = lf
                fr = self._localize(lf.fractions, stream.node_fractions, node)
                key.append((
                    stream.profile, stream.weight, stream.node_fractions.tobytes(),
                    stream.shared, tuple(fr.items()), lf.dram_bytes_per_access,
                    lf.mlp,
                ))
                per_thread.append(
                    _StreamCtx(
                        stream=stream,
                        src_node=node,
                        fractions=fr,
                        dram_bytes_per_access=lf.dram_bytes_per_access,
                        mlp=lf.mlp,
                    )
                )
            cls = classes.setdefault(tuple(key), len(classes))
            if cls == len(class_ctxs):
                class_ctxs.append(_ClassCtx(phase.compute_cycles_per_access, per_thread))
            resolved[inputs] = cls
            thread_class.append(cls)
        return class_ctxs, thread_class

    def _build_flows(
        self, class_ctxs: list[_ClassCtx], thread_class: list[int]
    ) -> _SpanFlows:
        """Flow table: one flow per (thread, stream, dst node) with traffic.

        The threads of a class emit the same flows, so each class's flows
        are resolved once and repeated in thread order.  They fold into
        groups keyed by (class, traffic coefficient, dst, channel) — the
        channel fixes the resources — whose multiplicity counts the flows
        they stand for.
        """
        topo = self.topology
        n_nodes = topo.n_sockets
        ch_index = self._fabric_ch_index
        capacities = self._fabric_capacities

        # Class flows, class by class: the flows of each class's first thread.
        class_start: list[int] = []
        coeffs: list[float] = []
        dsts: list[int] = []
        chans: list[int] = []  # channel index, -1 for node-local flows
        gids: list[int] = []
        group_ids: dict[tuple, int] = {}
        for cls, cc in enumerate(class_ctxs):
            class_start.append(len(coeffs))
            for ctx in cc.streams:
                nf = ctx.stream.node_fractions
                for dst in range(n_nodes):
                    traffic = ctx.stream.weight * ctx.dram_bytes_per_access * nf[dst]
                    if traffic <= _EPS:
                        continue
                    chan = -1
                    if dst != ctx.src_node:
                        chan = ch_index[Channel(ctx.src_node, dst)]
                    coeffs.append(traffic)
                    dsts.append(dst)
                    chans.append(chan)
                    gids.append(group_ids.setdefault((cls, traffic, dst, chan), len(group_ids)))

        fl = _SpanFlows()
        fl.capacities = capacities
        fl.n_links = self._fabric_n_links
        tmpl, per_thread = _repeat_class_rows(class_start, len(coeffs), thread_class)
        fl.flow_thread = np.repeat(np.arange(len(thread_class)), per_thread)
        fl.flow_coeff = np.array(coeffs, dtype=np.float64)[tmpl]
        fl.flow_dst = np.array(dsts, dtype=np.int64)[tmpl]
        fl.flow_chan = np.array(chans, dtype=np.int64)[tmpl]
        fl.n_flows = int(tmpl.shape[0])
        if fl.n_flows:
            keys = list(group_ids)
            gc = np.array([k[0] for k in keys], dtype=np.int64)
            fl.groups = FlowGroups(
                usage=[(d,) if c < 0 else (d, n_nodes + c) for _, _, d, c in keys],
                flow_group=np.array(gids, dtype=np.int64)[tmpl],
                n_res=capacities.shape[0],
            )
            fl.group_class = gc
            fl.group_coeff = np.array([k[1] for k in keys], dtype=np.float64)
            # Groups are created class by class, so per-class reductions
            # can use contiguous reduceat segments.
            starts = np.flatnonzero(np.r_[True, gc[1:] != gc[:-1]])
            fl.group_starts = starts
            fl.group_first = gc[starts]
        else:
            fl.groups = fl.group_class = fl.group_coeff = None
            fl.group_starts = fl.group_first = None
        return fl

    def _localize(
        self,
        fractions: dict[MemLevel, float],
        node_fractions: np.ndarray,
        src_node: int,
    ) -> dict[MemLevel, float]:
        """Split the DRAM fraction into local/remote by page placement."""
        out = dict(fractions)
        dram = out.pop(MemLevel.LOCAL_DRAM, 0.0) + out.pop(MemLevel.REMOTE_DRAM, 0.0)
        local = float(node_fractions[src_node]) if src_node < node_fractions.size else 0.0
        out[MemLevel.LOCAL_DRAM] = dram * local
        out[MemLevel.REMOTE_DRAM] = dram * (1.0 - local)
        return out

    # -- the columnar kernel ----------------------------------------------------

    def _build_layout(
        self,
        runnable: list[_ThreadState],
        class_ctxs: list[_ClassCtx],
        thread_class: list[int],
    ) -> _SpanLayout:
        """Lay the span out as class rows to price and thread rows to record.

        Thread rows follow the canonical visit order the goldens are
        pinned to, so every downstream accumulation (``np.add.at``, bucket
        dict updates) sees operands in the same sequence and produces the
        same bits run after run.  A class's threads have equal streams in
        equal order, so their rows are the class's rows in the same order.
        """
        tab = self.latency_table
        n_nodes = self.topology.n_sockets
        ch_index = tab.channel_index
        local_dram = MemLevel.LOCAL_DRAM
        remote_dram = MemLevel.REMOTE_DRAM
        local_int = int(local_dram)
        remote_int = int(remote_dram)
        local_pipe = tab.pipe(local_dram)
        local_mcpart = tab.mc_part(local_dram)
        remote_pipe = tab.pipe(remote_dram)
        remote_mcpart = tab.mc_part(remote_dram)
        remote_linkpart = tab.link_part(remote_dram)
        base_of = tab.base_of
        random_kind = PatternKind.RANDOM

        prog: list[tuple[float, list]] = []
        f_col: list[float] = []
        m1_col: list[float] = []
        d1_col: list[float] = []
        w_col: list[float] = []
        lat0: list[float] = []
        dram_idx: list[int] = []
        dram_pipe: list[float] = []
        dram_mcpart: list[float] = []
        dram_node: list[int] = []
        rem_pos: list[int] = []
        rem_linkpart: list[float] = []
        rem_link: list[int] = []
        rand_pos: list[int] = []
        bucket_ok: list[bool] = []
        lvl_c: list[int] = []
        dst_c: list[int] = []
        src_c: list[int] = []
        stream_c: list[int] = []  # index of the row's stream in its phase
        class_start: list[int] = []
        nrow = 0

        for cc in class_ctxs:
            class_start.append(nrow)
            stream_entries: list[tuple[float, float, list]] = []
            for s_idx, ctx in enumerate(cc.streams):
                stream = ctx.stream
                src = ctx.src_node
                nf = stream.node_fractions
                is_random = stream.profile.kind is random_kind
                ctx_start = nrow
                terms: list[tuple[float, int, list | None]] = []
                for lvl, frac in ctx.fractions.items():
                    if frac <= 0:
                        continue
                    if lvl is remote_dram:
                        remote_total = 1.0 - float(nf[src])
                        denom = max(remote_total, _EPS)
                        sub: list[tuple[float, int]] = []
                        for dst in range(nf.size):
                            if dst == src or nf[dst] <= 0:
                                continue
                            ridx = nrow
                            nrow += 1
                            sub.append((float(nf[dst] / denom), ridx))
                            f_col.append(frac)
                            m1_col.append(float(nf[dst]))
                            d1_col.append(denom)
                            lat0.append(0.0)
                            dram_pipe.append(remote_pipe)
                            dram_mcpart.append(remote_mcpart)
                            dram_node.append(dst)
                            rem_pos.append(len(dram_idx))
                            rem_linkpart.append(remote_linkpart)
                            rem_link.append(ch_index[Channel(src, dst)])
                            if is_random:
                                rand_pos.append(len(dram_idx))
                            dram_idx.append(ridx)
                            bucket_ok.append(dst < n_nodes)
                            lvl_c.append(remote_int)
                            dst_c.append(dst)
                        terms.append((frac, -1, sub))
                    else:
                        ridx = nrow
                        nrow += 1
                        f_col.append(frac)
                        m1_col.append(1.0)
                        d1_col.append(1.0)
                        if lvl is local_dram:
                            lat0.append(0.0)
                            dram_pipe.append(local_pipe)
                            dram_mcpart.append(local_mcpart)
                            dram_node.append(src)
                            if is_random:
                                rand_pos.append(len(dram_idx))
                            dram_idx.append(ridx)
                            lvl_int = local_int
                        else:
                            lat0.append(base_of(lvl))
                            lvl_int = int(lvl)
                        terms.append((frac, ridx, None))
                        bucket_ok.append(True)
                        lvl_c.append(lvl_int)
                        dst_c.append(src)
                n_ctx_rows = nrow - ctx_start
                w_col.extend([stream.weight] * n_ctx_rows)
                src_c.extend([src] * n_ctx_rows)
                stream_c.extend([s_idx] * n_ctx_rows)
                stream_entries.append((stream.weight, ctx.mlp, terms))
            prog.append((cc.compute_cycles_per_access, stream_entries))

        lay = _SpanLayout()
        lay.prog = prog
        lay.row_lat0 = np.array(lat0, dtype=np.float64)
        lay.dram_idx = np.array(dram_idx, dtype=np.int64)
        lay.dram_pipe = np.array(dram_pipe, dtype=np.float64)
        lay.dram_mcpart = np.array(dram_mcpart, dtype=np.float64)
        lay.dram_node = np.array(dram_node, dtype=np.int64)
        lay.rem_pos = np.array(rem_pos, dtype=np.int64)
        lay.rem_linkpart = np.array(rem_linkpart, dtype=np.float64)
        lay.rem_link = np.array(rem_link, dtype=np.int64)
        lay.rand_pos = np.array(rand_pos, dtype=np.int64)

        # Thread rows: each thread repeats its class's rows.
        tmpl, per_thread = _repeat_class_rows(class_start, nrow, thread_class)
        lay.row_template = tmpl
        lay.row_thread = np.repeat(np.arange(len(runnable)), per_thread)
        lay.w = np.array(w_col, dtype=np.float64)[tmpl]
        lay.f = np.array(f_col, dtype=np.float64)[tmpl]
        lay.m1 = np.array(m1_col, dtype=np.float64)[tmpl]
        lay.d1 = np.array(d1_col, dtype=np.float64)[tmpl]
        ok = np.array(bucket_ok, dtype=bool)
        lay.all_ok = bool(ok.all())
        lay.bucket_ok = ok[tmpl].tolist()
        lay.lvl = np.array(lvl_c, dtype=np.int64)[tmpl]
        lay.dst = np.array(dst_c, dtype=np.int64)[tmpl]
        lay.src = np.array(src_c, dtype=np.int64)[tmpl]

        # Identity columns come from each thread's own streams.
        tids: list[int] = []
        cpus: list[int] = []
        stream_first: list[int] = []
        objs: list[int] = []
        rbases: list[int] = []
        rbytes: list[int] = []
        for st in runnable:
            tids.append(st.program.thread_id)
            cpus.append(st.program.cpu)
            stream_first.append(len(objs))
            for s in st.current_phase().streams:
                objs.append(s.object_id)
                rbases.append(s.region_base)
                rbytes.append(s.region_bytes)
        sidx = np.repeat(np.array(stream_first, dtype=np.int64), per_thread) + np.array(
            stream_c, dtype=np.int64
        )[tmpl]
        lay.tid = np.repeat(np.array(tids, dtype=np.int64), per_thread)
        lay.cpu = np.repeat(np.array(cpus, dtype=np.int64), per_thread)
        lay.obj = np.array(objs, dtype=np.int64)[sidx]
        lay.rbase = np.array(rbases, dtype=np.int64)[sidx]
        lay.rbytes = np.array(rbytes, dtype=np.int64)[sidx]
        lay.key_prefix = list(zip(
            lay.tid.tolist(), lay.cpu.tolist(), lay.src.tolist(), lay.obj.tolist(),
            lay.rbase.tolist(), lay.rbytes.tolist(), lay.lvl.tolist(), lay.dst.tolist(),
        ))
        lay.n_rows = int(tmpl.shape[0])
        return lay

    def _row_latencies(
        self,
        lay: _SpanLayout,
        mc_rho: np.ndarray,
        link_rho: np.ndarray,
    ) -> np.ndarray:
        """Median latency of every class row under the given utilizations.

        Bit-identical to per-row ``LatencyModel.effective_latency`` calls:
        clip/divide/add/multiply are elementwise, so vectorizing them
        preserves every rounding.
        """
        lat = lay.row_lat0.copy()
        if lay.dram_idx.size:
            lm = self.latency_model
            mcf = queueing_delay_factor(mc_rho, lm.max_inflation)
            d = lay.dram_pipe + lay.dram_mcpart * np.asarray(mcf)[lay.dram_node]
            if lay.rem_pos.size:
                lkf = np.asarray(queueing_delay_factor(link_rho, lm.max_inflation))
                dr = d[lay.rem_pos]
                d[lay.rem_pos] = (dr - lay.rem_linkpart) + lay.rem_linkpart * lkf[lay.rem_link]
            if lay.rand_pos.size:
                d[lay.rand_pos] *= lm.random_access_penalty
            lat[lay.dram_idx] = d
        return lat

    def _rates_at(
        self,
        lay: _SpanLayout,
        mc_rho: np.ndarray,
        link_rho: np.ndarray,
        extra_stall: float,
    ) -> list[float]:
        """Per-class issue rates at the given utilizations (columnar).

        Evaluates each class's rate program, reading row
        latencies from one vectorized pricing pass; the reductions stay in
        scalar Python because numpy's pairwise summation would change the
        accumulation order (and therefore the bits).
        """
        latl = self._row_latencies(lay, mc_rho, link_rho).tolist()
        rates: list[float] = []
        for cpa, stream_entries in lay.prog:
            stall = 0.0
            for weight, mlp, terms in stream_entries:
                s = 0.0
                for frac, ridx, sub in terms:
                    if sub is None:
                        lat = latl[ridx]
                    else:
                        lat = 0.0
                        for share, rj in sub:
                            lat += share * latl[rj]
                    s += frac * lat
                stall += weight * s / mlp
            denom = cpa + stall + extra_stall
            if denom <= 0:
                raise SimulationError("thread with zero cost per access")
            rates.append(1.0 / denom)
        return rates

    def _solve_span_columnar(
        self,
        runnable: list[_ThreadState],
        extra_stall: float,
    ) -> _SpanPlan:
        """Solve one span's rate/utilization fixed point over thread classes.

        Every step is elementwise per class or per flow group, the group
        water-fill is bitwise the per-flow one, and a class's rate is its
        threads' rate, so expanding the class rates gives the per-thread
        fixed point bit for bit.
        """
        n_nodes = self.topology.n_sockets
        class_ctxs, thread_class = self._build_ctxs(runnable)
        fl = self._build_flows(class_ctxs, thread_class)
        lay = self._build_layout(runnable, class_ctxs, thread_class)
        n_links = fl.n_links
        n_classes = len(lay.prog)

        rates = np.array(
            self._rates_at(lay, np.zeros(n_nodes), np.zeros(n_links), extra_stall)
        )
        mc_rho = np.zeros(n_nodes)
        link_rho = np.zeros(n_links)

        for _ in range(_RATE_ITERATIONS):
            if fl.n_flows:
                demands = rates[fl.group_class] * fl.group_coeff
                sol = water_fill(demands, fl.groups, fl.capacities)
                mc_rho = sol.utilization[:n_nodes]
                link_rho = sol.utilization[n_nodes:]
                throttle = sol.throttle(demands)
                # A thread advances no faster than its most-throttled flow;
                # min is exact, so the per-class reduction over the class's
                # contiguous groups equals the per-thread one over its flows.
                cap = np.full(n_classes, np.inf)
                cap[fl.group_first] = np.minimum.reduceat(
                    np.where(throttle > 0, throttle, _EPS), fl.group_starts
                )
                rate_cap = rates * np.where(np.isfinite(cap), cap, 1.0)
            else:
                rate_cap = rates.copy()

            vals = self._rates_at(lay, mc_rho, link_rho, extra_stall)
            new_rates = np.array(
                [
                    min(v, rate_cap[i] if rate_cap[i] > 0 else _EPS)
                    for i, v in enumerate(vals)
                ]
            )
            rates = _RATE_DAMPING * rates + (1.0 - _RATE_DAMPING) * new_rates

        plan = _SpanPlan()
        plan.rates = rates[thread_class].tolist()
        plan.n_classes = n_classes
        plan.layout = lay
        plan.flows = fl
        plan.final_latency = self._row_latencies(lay, mc_rho, link_rho)[lay.row_template]
        return plan

    def _record_span_columnar(
        self,
        now: float,
        dt: float,
        runnable: list[_ThreadState],
        plan: _SpanPlan,
        memctrl: MemoryControllerSet,
        fabric: InterconnectFabric,
        bucket_acc: dict[tuple, list[float]],
        phase_spans: dict[tuple[int, str], list[float]],
    ) -> None:
        """Record one stationary span into controllers, fabric and buckets."""
        for st in runnable:
            phase = st.current_phase()
            assert phase is not None
            key = (st.phase_idx, phase.name)
            span = phase_spans.setdefault(key, [now, now + dt])
            span[0] = min(span[0], now)
            span[1] = max(span[1], now + dt)

        fl = plan.flows
        lay = plan.layout
        node_bytes = np.zeros(self.topology.n_sockets)
        chan_bytes = np.zeros(len(fabric))
        rates_arr = np.asarray(plan.rates, dtype=np.float64)
        if fl.n_flows:
            tr = fl.flow_coeff * rates_arr[fl.flow_thread]
            tr = tr * dt
            # np.add.at applies updates sequentially in element order — the
            # canonical accumulation order the goldens are pinned to.
            np.add.at(node_bytes, fl.flow_dst, tr)
            remote = fl.flow_chan >= 0
            if remote.any():
                np.add.at(chan_bytes, fl.flow_chan[remote], tr[remote])

        if lay.n_rows:
            a = rates_arr[lay.row_thread] * dt
            a = a * lay.w
            a = a * lay.f
            a = a * lay.m1
            counts = (a / lay.d1).tolist()
            lats = plan.final_latency.tolist()
            prefix = lay.key_prefix
            ok = lay.bucket_ok
            all_ok = lay.all_ok
            log2 = math.log2
            for i, c in enumerate(counts):
                if c <= 0 or not (all_ok or ok[i]):
                    continue
                latv = lats[i]
                lat_bin = int(round(4.0 * log2(latv if latv > 1.0 else 1.0)))
                key = prefix[i] + (lat_bin,)
                acc = bucket_acc.get(key)
                if acc is None:
                    bucket_acc[key] = [c, c * latv]
                else:
                    acc[0] += c
                    acc[1] += c * latv

        memctrl.record_interval(now, dt, node_bytes)
        fabric.record_interval(now, dt, chan_bytes)

    def _span_rates_columnar(
        self,
        plan: _SpanPlan,
        fabric: InterconnectFabric,
    ) -> tuple[BucketRates, np.ndarray, np.ndarray]:
        """Per-cycle access/traffic rates of the span, for the streaming hook."""
        fl = plan.flows
        lay = plan.layout
        node_rate = np.zeros(self.topology.n_sockets)
        chan_rate = np.zeros(len(fabric))
        rates_arr = np.asarray(plan.rates, dtype=np.float64)
        if fl.n_flows:
            tr = fl.flow_coeff * rates_arr[fl.flow_thread]
            np.add.at(node_rate, fl.flow_dst, tr)
            remote = fl.flow_chan >= 0
            if remote.any():
                np.add.at(chan_rate, fl.flow_chan[remote], tr[remote])

        r = rates_arr[lay.row_thread] * lay.w
        r = r * lay.f
        r = r * lay.m1
        r = r / lay.d1
        keep = r > 0
        if not lay.all_ok:
            keep &= np.asarray(lay.bucket_ok, dtype=bool)
        return (
            BucketRates(
                thread_id=lay.tid[keep],
                cpu=lay.cpu[keep],
                src_node=lay.src[keep],
                object_id=lay.obj[keep],
                region_base=lay.rbase[keep],
                region_bytes=lay.rbytes[keep],
                level=lay.lvl[keep],
                dst_node=lay.dst[keep],
                rate=r[keep],
                latency=plan.final_latency[keep],
            ),
            node_rate,
            chan_rate,
        )

    # -- the streaming hook -----------------------------------------------------

    def _emit_slices(
        self,
        listener,
        index: int,
        start: float,
        span: float,
        span_tbl: tuple[BucketRates, np.ndarray, np.ndarray],
        fabric: InterconnectFabric,
        max_cycles: float | None,
    ) -> int:
        """Slice one stationary span into monitoring intervals.

        The solver ran once for the whole span; slices share one
        :class:`BucketRates` table (``span_tbl``, built by
        ``_span_rates_columnar``), so each emission is a handful of
        vectorized scalings — cheap enough to leave the listener attached
        on production-length runs.
        """
        bucket_rates, node_rate, chan_rate = span_tbl
        n_slices = 1
        if max_cycles is not None:
            n_slices = max(1, math.ceil(span / max_cycles))
            if n_slices > 100_000:
                raise SimulationError(
                    f"interval_max_cycles={max_cycles} slices a {span:.3g}-cycle "
                    "span into too many intervals"
                )
        dt = span / n_slices
        channels = fabric.channels
        for k in range(n_slices):
            chan_bytes = chan_rate * dt
            listener(
                IntervalRecord(
                    index=index,
                    start_cycle=start + k * dt,
                    duration_cycles=dt,
                    node_bytes=node_rate * dt,
                    channel_bytes={
                        ch: float(v) for ch, v in zip(channels, chan_bytes)
                    },
                    rates=bucket_rates,
                )
            )
            index += 1
        return index

    @staticmethod
    def _finalize_bucket_columns(bucket_acc: dict[tuple, list[float]]) -> BucketColumns:
        """Emit accumulated buckets as sorted columns.

        Keys are sorted canonically so the serialized output is independent
        of dict insertion order (regression-tested with shuffled insertion
        in ``tests/engine/test_columnar_equiv.py``).
        """
        items = sorted(bucket_acc.items())
        n = len(items)
        ints = np.empty((n, 8), dtype=np.int64)
        counts = np.empty(n, dtype=np.float64)
        lat_sums = np.empty(n, dtype=np.float64)
        for i, (key, acc) in enumerate(items):
            ints[i] = key[:8]
            counts[i] = acc[0]
            lat_sums[i] = acc[1]
        return BucketColumns(
            thread_id=ints[:, 0].copy(),
            cpu=ints[:, 1].copy(),
            src_node=ints[:, 2].copy(),
            object_id=ints[:, 3].copy(),
            region_base=ints[:, 4].copy(),
            region_bytes=ints[:, 5].copy(),
            level=ints[:, 6].copy(),
            dst_node=ints[:, 7].copy(),
            n_accesses=counts,
            mean_latency=lat_sums / counts,
        )

    @staticmethod
    def _phase_timings(phase_spans: dict[tuple[int, str], list[float]]) -> list[PhaseTiming]:
        return [
            PhaseTiming(name=name, start_cycle=span[0], end_cycle=span[1])
            for (_, name), span in sorted(phase_spans.items())
        ]
