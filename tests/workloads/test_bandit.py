"""Tests for the bandwidth-bandit micro benchmark.

The key validation: the pointer-chase construction must defeat the cache
hierarchy — run through the *exact* set-associative simulator, the chain
produces a ~100% miss rate (Section V.A.2's conflict-miss design).
"""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.numasim.cache import CacheHierarchy, SetAssociativeCache
from repro.numasim.machine import Machine
from repro.numasim.topology import CacheSpec, NumaTopology
from repro.osl.pages import HUGE_PAGE_BYTES
from repro.types import MemLevel
from repro.workloads.bandit import build_chase_addresses, make_bandit
from repro.workloads.runner import run_workload

MB = 1024 * 1024


class TestChaseConstruction:
    L3 = CacheSpec(size_bytes=1 * MB, line_bytes=64, associativity=16)

    def test_all_addresses_same_set(self):
        addrs = build_chase_addresses(self.L3, 0, 8 * MB, target_set=5)
        cache = SetAssociativeCache(self.L3)
        sets = {cache.set_of(int(a)) for a in addrs}
        assert sets == {5}

    def test_conflict_misses_in_exact_cache(self):
        """Every access past the warmup window conflicts: ~100% miss rate."""
        addrs = build_chase_addresses(self.L3, 0, 8 * MB)
        cache = SetAssociativeCache(self.L3)
        for a in addrs:  # one warm pass
            if not cache.access(int(a)):
                cache.fill(int(a))
        cache.reset_stats()
        for a in addrs:  # chase again: the set only holds 16 of 128 lines
            if not cache.access(int(a)):
                cache.fill(int(a))
        assert cache.miss_rate > 0.99

    def test_defeats_full_hierarchy(self):
        topo = NumaTopology()
        chain = build_chase_addresses(topo.l3, 0, 64 * MB)
        # Chase the chain repeatedly: 64 same-set lines against a 20-way L3.
        trace = np.tile(chain, 32)
        hier = CacheHierarchy(topo.l1, topo.l2, topo.l3)
        levels = hier.run_trace(trace)
        dram = np.sum(levels == int(MemLevel.LOCAL_DRAM))
        assert dram / len(trace) > 0.95

    def test_permutation_deterministic_by_seed(self):
        a = build_chase_addresses(self.L3, 0, 8 * MB, seed=1)
        b = build_chase_addresses(self.L3, 0, 8 * MB, seed=1)
        c = build_chase_addresses(self.L3, 0, 8 * MB, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unaligned_base_rejected(self):
        with pytest.raises(WorkloadError):
            build_chase_addresses(self.L3, 4096, 8 * MB)

    def test_too_small_region_rejected(self):
        with pytest.raises(WorkloadError):
            build_chase_addresses(self.L3, 0, 1024)

    def test_bad_target_set(self):
        with pytest.raises(WorkloadError):
            build_chase_addresses(self.L3, 0, 8 * MB, target_set=10_000)


class TestBanditWorkload:
    def test_structure(self):
        wl = make_bandit(n_instances=2, streams_per_instance=4, target_node=2)
        assert wl.objects[0].huge_pages
        assert wl.objects[0].base if hasattr(wl.objects[0], "base") else True
        assert wl.phases[0].streams[0].chains == 4

    def test_target_node_zero_rejected(self):
        with pytest.raises(WorkloadError):
            make_bandit(target_node=0)

    def test_bad_instances(self):
        with pytest.raises(WorkloadError):
            make_bandit(n_instances=0)

    def test_all_traffic_remote(self, machine):
        run = run_workload(make_bandit(target_node=1), machine, 1, 1)
        cols = run.result.bucket_columns
        local = cols.n_accesses[cols.level == MemLevel.LOCAL_DRAM].sum()
        remote = cols.n_accesses[cols.level == MemLevel.REMOTE_DRAM].sum()
        assert local == 0
        assert remote > 0

    def test_more_chains_more_bandwidth(self, machine):
        t1 = run_workload(make_bandit(streams_per_instance=1), machine, 1, 1).total_cycles
        t4 = run_workload(make_bandit(streams_per_instance=4), machine, 1, 1).total_cycles
        assert t4 < t1 / 2  # chains overlap dependent misses

    def test_huge_page_alignment(self, machine):
        run = run_workload(make_bandit(), machine, 1, 1)
        obj = run.compiled.objects["chase"]
        assert obj.base % HUGE_PAGE_BYTES == 0
