"""Differential oracle for the thread-class span solve.

The engine solves each stationary span's rate/utilization fixed point
once per *thread class* — threads whose every rate-relevant resolved
input is equal — and arbitrates flow groups with the grouped water-fill.
The per-thread solver it replaced is kept here verbatim as the reference:
it prices every thread and arbitrates every flow with the per-flow fill
(``per_flow_water_fill``, the oracle of ``tests/numasim/test_fairness``).
Swapping it into the engine must leave every interval record, bucket
column and ``total_cycles`` byte-identical, over the randomized pipeline
sweep of ``test_columnar_equiv`` and over hand-built asymmetric spans:
SMT co-runners, mixed phases in one span, ``barriers=False``, profiling
stall and the streaming ``interval_listener`` path.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from repro.numasim import engine as engine_mod
from repro.errors import SimulationError
from repro.numasim.cachemodel import EffectiveCaches, PatternKind, StreamProfile
from repro.numasim.engine import (
    EnginePhase,
    EngineStream,
    ExecutionEngine,
    ThreadProgram,
    _SpanPlan,
    _ThreadState,
)
from repro.numasim.fairness import FairnessSolution
from repro.numasim.machine import Machine
from repro.numasim.topology import NumaTopology
from repro.types import Channel, MemLevel
from repro.workloads import run_workload

from tests.engine.test_columnar_equiv import (
    _digest,
    _interval_json,
    _make_cases,
    _run_json,
)
from tests.numasim.test_fairness import per_flow_water_fill

_EPS = engine_mod._EPS
_RATE_ITERATIONS = engine_mod._RATE_ITERATIONS
_RATE_DAMPING = engine_mod._RATE_DAMPING
MB = 1 << 20
KB = 1 << 10


# ---------------------------------------------------------------------------
# The per-thread reference solver: the span setup, rate program and fixed
# point as they were before the class fold (only the latency pricing,
# ``_localize`` and the recorders, which the fold left unchanged, are the
# engine's own)
# ---------------------------------------------------------------------------

@dataclass
class _RefCtx:
    """Per-interval resolved state of one (thread, stream) pair."""

    state: object
    stream: EngineStream
    src_node: int
    fractions: dict
    dram_bytes_per_access: float
    mlp: float


def _per_thread_ctxs(self, runnable):
    """Resolve per-(thread, stream) cache splits and DRAM fractions."""
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

    lf_cache = {}
    ctxs: list[list[_StreamCtx]] = []
    for st in runnable:
        phase = st.current_phase()
        assert phase is not None
        core = topo.core_of_cpu(st.program.cpu)
        node = topo.node_of_cpu(st.program.cpu)
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
            per_thread.append(
                _RefCtx(
                    state=st,
                    stream=stream,
                    src_node=node,
                    fractions=fr,
                    dram_bytes_per_access=lf.dram_bytes_per_access,
                    mlp=lf.mlp,
                )
            )
        ctxs.append(per_thread)
    return ctxs


def _per_thread_layout(self, runnable, ctxs):
    """Lay the span out as parallel columns, one row per bucket source.

    Row order follows the canonical visit order the goldens are pinned
    to, so every downstream accumulation (``np.add.at``, bucket dict
    updates) sees operands in the same sequence and produces the same
    bits run after run.
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
    lat0: list[float] = []
    dram_idx: list[int] = []
    dram_pipe: list[float] = []
    dram_mcpart: list[float] = []
    dram_node: list[int] = []
    rem_pos: list[int] = []
    rem_linkpart: list[float] = []
    rem_link: list[int] = []
    rand_pos: list[int] = []
    key_prefix: list[tuple] = []
    bucket_ok: list[bool] = []
    lvl_c: list[int] = []
    dst_c: list[int] = []
    # Columns constant within one (thread, stream) context are recorded
    # once per context and expanded with np.repeat at the end — rows of
    # a context are contiguous in the canonical visit order.
    nrow = 0
    ctx_rows: list[int] = []
    ctx_tidx: list[int] = []
    ctx_w: list[float] = []
    ctx_tid: list[int] = []
    ctx_cpu: list[int] = []
    ctx_src: list[int] = []
    ctx_obj: list[int] = []
    ctx_rbase: list[int] = []
    ctx_rbytes: list[int] = []

    for t_idx, (st, per_thread) in enumerate(zip(runnable, ctxs)):
        phase = st.current_phase()
        assert phase is not None
        tid = st.program.thread_id
        cpu = st.program.cpu
        stream_entries: list[tuple[float, float, list]] = []
        for ctx in per_thread:
            stream = ctx.stream
            src = ctx.src_node
            nf = stream.node_fractions
            is_random = stream.profile.kind is random_kind
            obj = stream.object_id
            rbase = stream.region_base
            rbytes = stream.region_bytes
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
                        key_prefix.append(
                            (tid, cpu, src, obj, rbase, rbytes, remote_int, dst)
                        )
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
                    key_prefix.append(
                        (tid, cpu, src, obj, rbase, rbytes, lvl_int, src)
                    )
                    lvl_c.append(lvl_int)
                    dst_c.append(src)
            ctx_rows.append(nrow - ctx_start)
            ctx_tidx.append(t_idx)
            ctx_w.append(stream.weight)
            ctx_tid.append(tid)
            ctx_cpu.append(cpu)
            ctx_src.append(src)
            ctx_obj.append(obj)
            ctx_rbase.append(rbase)
            ctx_rbytes.append(rbytes)
            stream_entries.append((stream.weight, ctx.mlp, terms))
        prog.append((phase.compute_cycles_per_access, stream_entries))

    lay = SimpleNamespace()
    lay.prog = prog
    reps = np.array(ctx_rows, dtype=np.int64)
    lay.row_thread = np.repeat(np.array(ctx_tidx, dtype=np.int64), reps)
    lay.w = np.repeat(np.array(ctx_w, dtype=np.float64), reps)
    lay.f = np.array(f_col, dtype=np.float64)
    lay.m1 = np.array(m1_col, dtype=np.float64)
    lay.d1 = np.array(d1_col, dtype=np.float64)
    lay.row_lat0 = np.array(lat0, dtype=np.float64)
    lay.dram_idx = np.array(dram_idx, dtype=np.int64)
    lay.dram_pipe = np.array(dram_pipe, dtype=np.float64)
    lay.dram_mcpart = np.array(dram_mcpart, dtype=np.float64)
    lay.dram_node = np.array(dram_node, dtype=np.int64)
    lay.rem_pos = np.array(rem_pos, dtype=np.int64)
    lay.rem_linkpart = np.array(rem_linkpart, dtype=np.float64)
    lay.rem_link = np.array(rem_link, dtype=np.int64)
    lay.rand_pos = np.array(rand_pos, dtype=np.int64)
    lay.key_prefix = key_prefix
    lay.bucket_ok = bucket_ok
    lay.all_ok = all(bucket_ok)
    lay.tid = np.repeat(np.array(ctx_tid, dtype=np.int64), reps)
    lay.cpu = np.repeat(np.array(ctx_cpu, dtype=np.int64), reps)
    lay.src = np.repeat(np.array(ctx_src, dtype=np.int64), reps)
    lay.obj = np.repeat(np.array(ctx_obj, dtype=np.int64), reps)
    lay.rbase = np.repeat(np.array(ctx_rbase, dtype=np.int64), reps)
    lay.rbytes = np.repeat(np.array(ctx_rbytes, dtype=np.int64), reps)
    lay.lvl = np.array(lvl_c, dtype=np.int64)
    lay.dst = np.array(dst_c, dtype=np.int64)
    lay.n_rows = nrow
    return lay


def _per_thread_rates(self, lay, mc_rho, link_rho, extra_stall):
    """Per-thread issue rates at the given utilizations (columnar).

    Evaluates the same arithmetic as ``_thread_rate``, reading row
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



def _per_thread_flows(eng, ctxs):
    """Flow table: one flow per (thread, stream, dst node) with traffic."""
    topo = eng.topology
    n_nodes = topo.n_sockets
    ch_index = eng._fabric_ch_index
    capacities = eng._fabric_capacities

    usage, threads, coeffs_flat, dsts, chans = [], [], [], [], []
    for t_idx, per_thread in enumerate(ctxs):
        for ctx in per_thread:
            nf = ctx.stream.node_fractions
            for dst in range(n_nodes):
                traffic = ctx.stream.weight * ctx.dram_bytes_per_access * nf[dst]
                if traffic <= _EPS:
                    continue
                res = [dst]
                chan = -1
                if dst != ctx.src_node:
                    chan = ch_index[Channel(ctx.src_node, dst)]
                    res.append(n_nodes + chan)
                usage.append(tuple(res))
                threads.append(t_idx)
                coeffs_flat.append(traffic)
                dsts.append(dst)
                chans.append(chan)

    fl = SimpleNamespace()
    fl.capacities = capacities
    fl.n_links = eng._fabric_n_links
    ft = np.array(threads, dtype=np.int64)
    fl.flow_thread = ft
    fl.flow_coeff = np.array(coeffs_flat, dtype=np.float64)
    fl.flow_dst = np.array(dsts, dtype=np.int64)
    fl.flow_chan = np.array(chans, dtype=np.int64)
    fl.n_flows = len(usage)
    if fl.n_flows:
        member = np.zeros((capacities.shape[0], len(usage)), dtype=np.float64)
        for f, res in enumerate(usage):
            for r in res:
                member[r, f] = 1.0
        fl.member = member
        starts = np.flatnonzero(np.r_[True, ft[1:] != ft[:-1]])
        fl.flow_starts = starts
        fl.flow_first = ft[starts]
    return fl


def reference_solve(self, runnable, extra_stall):
    """The per-thread span solve: every thread priced, every flow filled."""
    n_nodes = self.topology.n_sockets
    ctxs = _per_thread_ctxs(self, runnable)
    fl = _per_thread_flows(self, ctxs)
    lay = _per_thread_layout(self, runnable, ctxs)
    n_links = fl.n_links

    rates = np.array(
        _per_thread_rates(self, lay, np.zeros(n_nodes), np.zeros(n_links), extra_stall)
    )
    mc_rho = np.zeros(n_nodes)
    link_rho = np.zeros(n_links)

    for _ in range(_RATE_ITERATIONS):
        if fl.n_flows:
            demands = rates[fl.flow_thread] * fl.flow_coeff
            alloc, util = per_flow_water_fill(demands, fl.member, fl.capacities)
            mc_rho = util[:n_nodes]
            link_rho = util[n_nodes:]
            throttle = FairnessSolution(alloc, util).throttle(demands)
            cap = np.full(len(ctxs), np.inf)
            cap[fl.flow_first] = np.minimum.reduceat(
                np.where(throttle > 0, throttle, _EPS), fl.flow_starts
            )
            rate_cap = rates * np.where(np.isfinite(cap), cap, 1.0)
        else:
            rate_cap = rates.copy()

        vals = _per_thread_rates(self, lay, mc_rho, link_rho, extra_stall)
        new_rates = np.array(
            [
                min(v, rate_cap[i] if rate_cap[i] > 0 else _EPS)
                for i, v in enumerate(vals)
            ]
        )
        rates = _RATE_DAMPING * rates + (1.0 - _RATE_DAMPING) * new_rates

    plan = _SpanPlan()
    plan.rates = [float(r) for r in rates]
    plan.n_classes = len(runnable)
    plan.layout = lay
    plan.flows = fl
    plan.final_latency = self._row_latencies(lay, mc_rho, link_rho)
    return plan


@pytest.fixture
def class_counts(monkeypatch):
    """Record (threads, classes) of every span the engine's own solver ran."""
    seen = []
    solve = ExecutionEngine._solve_span_columnar

    def counting(self, runnable, extra_stall):
        plan = solve(self, runnable, extra_stall)
        seen.append((len(runnable), plan.n_classes))
        return plan

    monkeypatch.setattr(ExecutionEngine, "_solve_span_columnar", counting)
    return seen


def _with_reference(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(ExecutionEngine, "_solve_span_columnar", reference_solve)
        return fn()


# ---------------------------------------------------------------------------
# The randomized pipeline sweep
# ---------------------------------------------------------------------------

def _workload_digests(topo, lat, workload, n_threads, n_nodes):
    machine = Machine(topology=topo, latency_model=lat)
    records = []
    run = run_workload(
        workload, machine, n_threads, n_nodes, interval_listener=records.append
    )
    return (
        _digest([_interval_json(r) for r in records]),
        _digest(_run_json(run.result)),
        run.result.total_cycles.hex(),
    )


@pytest.mark.parametrize(
    "topo, lat, workload, n_threads, n_nodes, faults, seed", _make_cases()
)
def test_class_solve_matches_per_thread_solve_on_sweep(
    monkeypatch, class_counts, topo, lat, workload, n_threads, n_nodes, faults, seed
):
    got = _workload_digests(topo, lat, workload, n_threads, n_nodes)
    want = _with_reference(
        monkeypatch,
        lambda: _workload_digests(topo, lat, workload, n_threads, n_nodes),
    )
    assert got == want
    assert class_counts and all(c <= t for t, c in class_counts)


# ---------------------------------------------------------------------------
# Asymmetric spans
# ---------------------------------------------------------------------------

TOPO = NumaTopology()  # 4 sockets x 8 cores x 2-way SMT; cpu c+32 is c's sibling


def _stream(nf, ws=256 * MB, kind=PatternKind.SEQUENTIAL, weight=1.0,
            object_id=0, base=0x10000000, shared=False):
    return EngineStream(
        object_id=object_id,
        region_base=base,
        region_bytes=ws,
        profile=StreamProfile(kind=kind, working_set_bytes=ws),
        weight=weight,
        node_fractions=np.array(nf, dtype=float),
        shared=shared,
    )


def _phase(name, n, streams, cpi=0.5):
    return EnginePhase(
        name=name, n_accesses=n, compute_cycles_per_access=cpi, streams=tuple(streams)
    )


def _mixed_streams(tid):
    return [
        _stream([0.5, 0.5, 0, 0], weight=0.5, object_id=0, base=0x1000_0000 + tid * MB),
        _stream([0.25, 0.25, 0.25, 0.25], ws=64 * MB, kind=PatternKind.RANDOM,
                weight=0.3, object_id=1, base=0x4000_0000, shared=True),
        _stream([0, 0, 1, 0], ws=512 * KB, weight=0.2, object_id=2,
                base=0x8000_0000 + tid * MB),
    ]


def _smt_corunners():
    # Cores 0 and 1 carry two threads each, cores 2 and 8 one each.
    cpus = [0, 32, 1, 33, 2, 8]
    return {}, [
        ThreadProgram(t, cpu, (_phase("p0", 2e6, _mixed_streams(t)),))
        for t, cpu in enumerate(cpus)
    ]


def _mixed_phases():
    # Without barriers, threads with different phase lengths overlap
    # phases, so one span holds threads in different phases.
    progs = []
    for t, cpu in enumerate([0, 1, 2, 3, 8, 9]):
        n = 1e6 * (1 + t % 3)
        progs.append(ThreadProgram(t, cpu, (
            _phase("load", n, _mixed_streams(t)),
            _phase("compute", 5e5, [_stream([1, 0, 0, 0], ws=256 * KB)], cpi=4.0),
            _phase("store", n / 2, [_stream([0, 1, 0, 0], base=0x2000_0000 + t * MB)]),
        )))
    return {"barriers": False}, progs


def _identical_no_barriers():
    return {"barriers": False}, [
        ThreadProgram(t, cpu, (_phase("p0", 1e6 + 1e5 * (t % 2), _mixed_streams(t)),))
        for t, cpu in enumerate([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
    ]


_ASYM = {
    "smt-corunners": _smt_corunners,
    "mixed-phases-no-barriers": _mixed_phases,
    "identical-no-barriers": _identical_no_barriers,
}


def _engine_digests(kwargs, programs, stall, slice_cycles):
    eng = ExecutionEngine(TOPO, **kwargs)
    records = []
    streamed = eng.run(
        programs,
        extra_stall_cycles_per_access=stall,
        interval_listener=records.append,
        interval_max_cycles=slice_cycles,
    )
    batch = eng.run(programs, extra_stall_cycles_per_access=stall)
    return (
        _digest([_interval_json(r) for r in records]),
        _digest(_run_json(streamed)),
        _digest(_run_json(batch)),
        streamed.total_cycles.hex(),
    )


@pytest.mark.parametrize("stall", [0.0, 3.5])
@pytest.mark.parametrize("case", sorted(_ASYM))
def test_class_solve_matches_per_thread_solve_on_asymmetric_spans(
    monkeypatch, class_counts, case, stall
):
    kwargs, programs = _ASYM[case]()
    got = _engine_digests(kwargs, programs, stall, 3e5)
    want = _with_reference(
        monkeypatch, lambda: _engine_digests(kwargs, programs, stall, 3e5)
    )
    assert got == want
    # The spans both fold threads together and keep some apart.
    assert any(c < t for t, c in class_counts)
    assert any(c > 1 for _, c in class_counts)


# ---------------------------------------------------------------------------
# The class key
# ---------------------------------------------------------------------------

def _classes(programs):
    eng = ExecutionEngine(TOPO)
    states = [_ThreadState(program=p) for p in programs]
    for st in states:
        eng._enter_phase(st)
    return eng._build_ctxs(states)


def test_smt_sibling_load_splits_a_class():
    """Identical programs on a loaded core (two SMT siblings) and on idle
    cores get different private-cache shares, so different classes; the
    region a thread touches is not rate-relevant and splits nothing."""
    def prog(tid, cpu):
        s = _stream([1, 0, 0, 0], ws=768 * KB, kind=PatternKind.RANDOM,
                    base=0x1000_0000 + tid * MB)
        return ThreadProgram(tid, cpu, (_phase("p0", 1e6, [s]),))

    class_ctxs, classes = _classes([prog(0, 0), prog(1, 1), prog(2, 32), prog(3, 2)])
    # The siblings on core 0 resolve another cache split than the others.
    assert class_ctxs[0].streams[0].fractions != class_ctxs[1].streams[0].fractions
    assert classes == [0, 1, 0, 1]


@pytest.mark.parametrize("change", [
    {"weights": (0.25, 0.75)},
    {"nf": [0.5, 0.5, 0, 0]},
    {"shared": True},
    {"kind": PatternKind.RANDOM},
], ids=["weight", "node_fractions", "shared", "profile"])
def test_one_rate_relevant_stream_field_splits_a_class(change):
    def prog(tid, cpu, weights=(0.5, 0.5), nf=(1, 0, 0, 0), shared=False,
             kind=PatternKind.SEQUENTIAL):
        streams = [
            _stream(nf, kind=kind, weight=weights[0], shared=shared),
            _stream([0, 1, 0, 0], ws=64 * MB, weight=weights[1], object_id=1),
        ]
        return ThreadProgram(tid, cpu, (_phase("p0", 1e6, streams),))

    assert _classes([prog(0, 0), prog(1, 1)])[1] == [0, 0]
    assert _classes([prog(0, 0), prog(1, 1, **change)])[1] == [0, 1]


def test_compute_cost_and_source_node_split_a_class():
    s = _stream([1, 0, 0, 0])
    a = ThreadProgram(0, 0, (_phase("p0", 1e6, [s], cpi=0.5),))
    slower = ThreadProgram(1, 1, (_phase("p0", 1e6, [s], cpi=0.75),))
    remote = ThreadProgram(2, 8, (_phase("p0", 1e6, [s], cpi=0.5),))
    assert _classes([a, slower, remote])[1] == [0, 1, 2]
