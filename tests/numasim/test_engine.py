"""Tests for the piecewise-stationary execution engine."""

import numpy as np
import pytest

from repro.errors import SimulationError, WorkloadError
from repro.numasim.cachemodel import PatternKind, StreamProfile
from repro.numasim.engine import (
    EnginePhase,
    EngineStream,
    ExecutionEngine,
    ThreadProgram,
)
from repro.numasim.topology import NumaTopology
from repro.types import Channel, MemLevel

MB = 1024 * 1024
TOPO = NumaTopology()


def stream(
    node_fractions,
    ws=256 * MB,
    kind=PatternKind.SEQUENTIAL,
    weight=1.0,
    object_id=0,
    base=0x10000000,
    shared=False,
):
    return EngineStream(
        object_id=object_id,
        region_base=base,
        region_bytes=ws,
        profile=StreamProfile(kind=kind, working_set_bytes=ws),
        weight=weight,
        node_fractions=np.array(node_fractions, dtype=float),
        shared=shared,
    )


def program(tid, cpu, streams, n_accesses=1e6, cpi=0.5, phases=None):
    if phases is None:
        phases = [
            EnginePhase(
                name="p0",
                n_accesses=n_accesses,
                compute_cycles_per_access=cpi,
                streams=tuple(streams),
            )
        ]
    return ThreadProgram(thread_id=tid, cpu=cpu, phases=tuple(phases))


class TestValidation:
    def test_stream_bad_weight(self):
        with pytest.raises(WorkloadError):
            stream([1, 0, 0, 0], weight=0.0)

    def test_stream_bad_fractions(self):
        with pytest.raises(WorkloadError):
            stream([0.5, 0, 0, 0])

    def test_phase_weights_must_sum(self):
        with pytest.raises(WorkloadError):
            EnginePhase(
                name="x", n_accesses=10, compute_cycles_per_access=1,
                streams=(stream([1, 0, 0, 0], weight=0.5),),
            )

    def test_duplicate_thread_ids(self):
        eng = ExecutionEngine(TOPO)
        p = program(0, 0, [stream([1, 0, 0, 0])])
        with pytest.raises(SimulationError):
            eng.run([p, p])

    def test_bad_cpu(self):
        eng = ExecutionEngine(TOPO)
        with pytest.raises(SimulationError):
            eng.run([program(0, 999, [stream([1, 0, 0, 0])])])

    def test_empty_program_list(self):
        with pytest.raises(SimulationError):
            ExecutionEngine(TOPO).run([])


class TestSingleThread:
    def test_local_run_time_sane(self):
        """One thread, all-local streaming: time ~ accesses x cost."""
        eng = ExecutionEngine(TOPO)
        res = eng.run([program(0, 0, [stream([1, 0, 0, 0])], n_accesses=1e6)])
        # cost/access: cpi 0.5 + modest stall => a few cycles.
        assert 1e6 < res.total_cycles < 1e7

    def test_remote_slower_than_local(self):
        eng = ExecutionEngine(TOPO)
        local = eng.run([program(0, 0, [stream([1, 0, 0, 0])])]).total_cycles
        remote = eng.run([program(0, 0, [stream([0, 1, 0, 0])])]).total_cycles
        assert remote > local

    def test_pointer_chase_much_slower_than_streaming(self):
        eng = ExecutionEngine(TOPO)
        seq = eng.run(
            [program(0, 0, [stream([1, 0, 0, 0])], n_accesses=1e5)]
        ).total_cycles
        chase = eng.run(
            [program(0, 0, [stream([1, 0, 0, 0], kind=PatternKind.POINTER_CHASE)],
                     n_accesses=1e5, cpi=0.0)]
        ).total_cycles
        assert chase > 10 * seq

    def test_remote_traffic_lands_on_right_channel(self):
        eng = ExecutionEngine(TOPO)
        res = eng.run([program(0, 0, [stream([0, 0, 1, 0])])])
        assert res.interconnect.total_bytes(Channel(0, 2)) > 0
        assert res.interconnect.total_bytes(Channel(0, 1)) == 0
        assert res.interconnect.total_bytes(Channel(2, 0)) == 0

    def test_thread_finish_cycles_recorded(self):
        eng = ExecutionEngine(TOPO)
        res = eng.run([program(0, 0, [stream([1, 0, 0, 0])])])
        assert res.thread_finish_cycles[0] == pytest.approx(res.total_cycles)


class TestContention:
    def _many_remote(self, n_threads=16):
        """n threads on nodes 1..3 all streaming node-0 data."""
        progs = []
        for t in range(n_threads):
            node = 1 + t % 3
            cpu = TOPO.cpus_of_node(node)[t // 3 % 8]
            progs.append(program(t, cpu, [stream([1, 0, 0, 0])], n_accesses=5e5))
        return progs

    def test_contention_slows_execution(self):
        eng = ExecutionEngine(TOPO)
        solo = eng.run(
            [program(0, TOPO.cpus_of_node(1)[0], [stream([1, 0, 0, 0])], n_accesses=5e5)]
        )
        crowd = eng.run(self._many_remote())
        assert crowd.total_cycles > 2 * solo.total_cycles

    def test_contention_inflates_remote_latency(self):
        eng = ExecutionEngine(TOPO)
        solo = eng.run(
            [program(0, TOPO.cpus_of_node(1)[0], [stream([1, 0, 0, 0])], n_accesses=5e5)]
        )
        crowd = eng.run(self._many_remote())

        def remote_lat(res):
            cols = res.bucket_columns
            remote = cols.level == MemLevel.REMOTE_DRAM
            n = cols.n_accesses[remote]
            return float((cols.mean_latency[remote] * n).sum() / n.sum())

        assert remote_lat(crowd) > 1.5 * remote_lat(solo)

    def test_memory_controller_loaded_on_target_node_only(self):
        eng = ExecutionEngine(TOPO)
        res = eng.run(self._many_remote())
        assert res.memctrl.peak_utilization(0) > 0.6
        assert res.memctrl.peak_utilization(1) < 0.2
        # The inbound links, not the controller, are the binding resource.
        assert max(
            res.interconnect.peak_utilization(c) for c in res.interconnect.channels
        ) > 0.9

    def test_no_resource_over_capacity(self):
        eng = ExecutionEngine(TOPO)
        res = eng.run(self._many_remote())
        for node in range(4):
            assert res.memctrl.peak_utilization(node) <= 1.0 + 1e-9
        for ch in res.interconnect.channels:
            assert res.interconnect.peak_utilization(ch) <= 1.0 + 1e-9


class TestPhasesAndBarriers:
    def _two_phase_programs(self):
        s = stream([1, 0, 0, 0])
        phases = [
            EnginePhase("a", 1e5, 0.5, (s,)),
            EnginePhase("b", 2e5, 0.5, (s,)),
        ]
        return [
            program(t, TOPO.cpus_of_node(0)[t], [], phases=phases) for t in range(2)
        ]

    def test_phase_timings_cover_run(self):
        eng = ExecutionEngine(TOPO)
        res = eng.run(self._two_phase_programs())
        names = {t.name for t in res.phase_timings}
        assert names == {"a", "b"}
        assert res.phase_cycles("a") > 0
        total = res.phase_cycles("a") + res.phase_cycles("b")
        assert total == pytest.approx(res.total_cycles, rel=0.01)

    def test_phase_b_longer_than_a(self):
        eng = ExecutionEngine(TOPO)
        res = eng.run(self._two_phase_programs())
        assert res.phase_cycles("b") > res.phase_cycles("a")

    def test_empty_phase_skipped(self):
        s = stream([1, 0, 0, 0])
        phases = [
            EnginePhase("idle", 0.0, 0.5, ()),
            EnginePhase("work", 1e5, 0.5, (s,)),
        ]
        eng = ExecutionEngine(TOPO)
        res = eng.run([program(0, 0, [], phases=phases)])
        assert res.phase_cycles("work") > 0
        assert res.phase_cycles("idle") == 0

    def test_master_only_phase(self):
        """A single-thread phase runs before the parallel one under barriers."""
        s = stream([1, 0, 0, 0])
        master_phases = [EnginePhase("init", 1e5, 1.0, (s,)), EnginePhase("par", 1e5, 0.5, (s,))]
        worker_phases = [EnginePhase("init", 0.0, 1.0, (s,)), EnginePhase("par", 1e5, 0.5, (s,))]
        progs = [
            ThreadProgram(0, 0, tuple(master_phases)),
            ThreadProgram(1, 1, tuple(worker_phases)),
        ]
        res = ExecutionEngine(TOPO, barriers=True).run(progs)
        init = [t for t in res.phase_timings if t.name == "init"][0]
        par = [t for t in res.phase_timings if t.name == "par"][0]
        assert init.end_cycle <= par.start_cycle + 1e-6


class TestOverheadInjection:
    def test_extra_stall_slows_run(self):
        eng = ExecutionEngine(TOPO)
        progs = [program(0, 0, [stream([1, 0, 0, 0])])]
        base = eng.run(progs).total_cycles
        slowed = eng.run(progs, extra_stall_cycles_per_access=1.0).total_cycles
        assert slowed > base

    def test_extra_stall_recorded(self):
        eng = ExecutionEngine(TOPO)
        res = eng.run([program(0, 0, [stream([1, 0, 0, 0])])],
                      extra_stall_cycles_per_access=0.4)
        assert res.extra_stall_cycles == 0.4


class TestDeterminism:
    def test_repeat_runs_identical(self):
        eng = ExecutionEngine(TOPO)
        progs = [
            program(t, TOPO.cpus_of_node(t % 4)[0], [stream([1, 0, 0, 0])])
            for t in range(4)
        ]
        a = eng.run(progs)
        b = eng.run(progs)
        assert a.total_cycles == b.total_cycles
        assert len(a.bucket_columns) == len(b.bucket_columns)


class TestBucketConservation:
    def test_bucket_accesses_sum_to_work(self):
        """Every simulated access lands in exactly one bucket."""
        eng = ExecutionEngine(TOPO)
        n = 3e5
        res = eng.run([program(0, 0, [stream([1, 0, 0, 0])], n_accesses=n)])
        assert res.bucket_columns.n_accesses.sum() == pytest.approx(n, rel=1e-6)

    def test_shared_stream_uses_full_l3(self):
        """A shared region the size of L3 stays cached even with many
        threads on the socket; a private CHUNK of the same total size
        would stream."""
        ws = 16 * MB  # fits the 20 MB socket L3 when shared
        progs = [
            ThreadProgram(
                t,
                TOPO.cpus_of_node(0)[t],
                (EnginePhase("p", 1e5, 0.5,
                             (EngineStream(
                                 object_id=0, region_base=0x10000000,
                                 region_bytes=ws,
                                 profile=StreamProfile(
                                     kind=PatternKind.SEQUENTIAL,
                                     working_set_bytes=ws, passes=8.0),
                                 weight=1.0,
                                 node_fractions=np.array([1.0, 0, 0, 0]),
                                 shared=True),)),),
            )
            for t in range(8)
        ]
        res = ExecutionEngine(TOPO).run(progs)
        cols = res.bucket_columns
        dram = cols.n_accesses[cols.level >= MemLevel.LOCAL_DRAM].sum()
        total = cols.n_accesses.sum()
        assert dram / total < 0.05, "shared L3 residency keeps DRAM traffic low"
