"""Tests for the training mini-programs."""

import pytest

from repro.numasim.machine import Machine
from repro.types import MemLevel
from repro.workloads.micro import MICRO_BUILDERS, make_countv, make_dotv, make_sumv
from repro.workloads.runner import run_workload

MB = 1024 * 1024


class TestBuilders:
    def test_sumv_structure(self):
        wl = make_sumv(64 * MB)
        assert [o.name for o in wl.objects] == ["v"]
        assert wl.phases[0].accesses_are_total

    def test_dotv_two_vectors(self):
        wl = make_dotv(64 * MB)
        assert {o.name for o in wl.objects} == {"a", "b"}
        weights = [s.weight for s in wl.phases[0].streams]
        assert sum(weights) == pytest.approx(1.0)

    def test_countv_more_compute(self):
        assert (
            make_countv(64 * MB).phases[0].compute_cycles_per_access
            > make_sumv(64 * MB).phases[0].compute_cycles_per_access
        )

    def test_registry(self):
        assert set(MICRO_BUILDERS) == {"sumv", "dotv", "countv"}

    def test_thread_cap_bounds_work(self):
        wl = make_sumv(1024 * MB, thread_cap=1e6)
        assert wl.phases[0].thread_accesses(1) == 1e6


class TestBehaviour:
    def test_small_vector_cache_resident(self, machine):
        run = run_workload(make_sumv(1 * MB), machine, 4, 1)
        cols = run.result.bucket_columns
        dram = cols.n_accesses[cols.level >= MemLevel.LOCAL_DRAM].sum()
        total = cols.n_accesses.sum()
        assert dram / total < 0.02

    def test_large_multinode_vector_contends(self, machine):
        run = run_workload(make_sumv(512 * MB), machine, 32, 4)
        peak = max(
            run.result.interconnect.peak_utilization(c)
            for c in run.result.interconnect.channels
        )
        assert peak > 0.9

    def test_colocated_large_vector_no_remote(self, machine):
        run = run_workload(make_sumv(512 * MB, colocate=True), machine, 32, 4)
        cols = run.result.bucket_columns
        remote = cols.n_accesses[cols.level == MemLevel.REMOTE_DRAM].sum()
        assert remote == 0

    def test_more_threads_faster_single_node(self, machine):
        # Uncapped so the fixed total work is genuinely divided among threads.
        t2 = run_workload(make_sumv(64 * MB, thread_cap=None), machine, 2, 1).total_cycles
        t8 = run_workload(make_sumv(64 * MB, thread_cap=None), machine, 8, 1).total_cycles
        assert t8 < t2
