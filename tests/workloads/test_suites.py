"""Tests for the benchmark-analog registry and behavioural contracts."""

import pytest

from repro.errors import WorkloadError
from repro.numasim.machine import Machine
from repro.types import MemLevel
from repro.workloads.runner import run_workload
from repro.workloads.suites.npb import NPB_CLASSES, make_npb
from repro.workloads.suites.parsec import PARSEC_INPUTS, make_parsec
from repro.workloads.suites.registry import BENCHMARKS, benchmark, benchmark_names
from repro.workloads.suites.rodinia import make_nw
from repro.workloads.suites.sequoia import make_amg2006, make_irsmk


class TestRegistry:
    def test_twenty_three_benchmarks(self):
        assert len(BENCHMARKS) == 23

    def test_table5_case_count_is_512(self):
        total = sum(s.n_cases for s in BENCHMARKS.values() if s.in_table5)
        assert total == 512

    def test_paper_table5_row_counts(self):
        expected = {
            "Swaptions": 32, "Blackscholes": 32, "Bodytrack": 16, "Freqmine": 32,
            "Ferret": 32, "Fluidanimate": 32, "X264": 32, "Streamcluster": 16,
            "IRSmk": 24, "AMG2006": 8, "NW": 24, "BT": 24, "CG": 24, "DC": 16,
            "EP": 24, "FT": 24, "IS": 24, "LU": 24, "MG": 24, "UA": 24, "SP": 24,
        }
        for name, cases in expected.items():
            assert BENCHMARKS[name].n_cases == cases, name

    def test_lulesh_and_raytrace_not_in_table5(self):
        assert not BENCHMARKS["LULESH"].in_table5
        assert not BENCHMARKS["Raytrace"].in_table5
        assert len(benchmark_names(table5_only=True)) == 21

    def test_paper_classes(self):
        rmc = {n for n, s in BENCHMARKS.items() if s.paper_class == "rmc"}
        assert rmc == {"SP", "Streamcluster", "NW", "AMG2006", "IRSmk", "LULESH"}

    def test_every_input_builds(self):
        for spec in BENCHMARKS.values():
            for inp in spec.inputs:
                wl = spec.build(inp)
                assert wl.objects and wl.phases

    def test_unknown_lookups(self):
        with pytest.raises(WorkloadError):
            benchmark("NOPE")
        with pytest.raises(WorkloadError):
            BENCHMARKS["BT"].build("Z")
        with pytest.raises(WorkloadError):
            make_npb("NOPE", "A")
        with pytest.raises(WorkloadError):
            make_parsec("NOPE", "native")

    def test_input_scales(self):
        assert NPB_CLASSES["C"] > NPB_CLASSES["A"]
        assert PARSEC_INPUTS["native"] > PARSEC_INPUTS["simsmall"]


class TestStructuralContracts:
    def test_sp_arrays_are_static(self):
        wl = make_npb("SP", "C")
        assert all(not o.is_heap for o in wl.objects)

    def test_lulesh_mixes_heap_and_static(self):
        wl = BENCHMARKS["LULESH"].build("large")
        kinds = {o.is_heap for o in wl.objects}
        assert kinds == {True, False}
        heap = [o for o in wl.objects if o.is_heap]
        assert len(heap) == 10  # the lulesh.cc:2158-2238 block

    def test_irsmk_has_29_arrays(self):
        wl = make_irsmk("medium")
        assert len(wl.objects) == 29
        names = {o.name for o in wl.objects}
        assert {"b", "k"} <= names

    def test_amg_phases(self):
        wl = make_amg2006()
        assert [p.name for p in wl.phases] == ["init", "setup", "solve"]
        assert wl.phases[0].single_thread

    def test_nw_master_allocated(self):
        wl = make_nw("default")
        from repro.osl.pages import FirstTouch

        for name in ("reference", "input_itemsets"):
            spec = wl.object_spec(name)
            assert isinstance(spec.policy, FirstTouch)
            assert spec.policy.toucher_node == 0

    def test_streamcluster_block_read_only(self):
        wl = make_parsec("Streamcluster", "native")
        for phase in wl.phases:
            for s in phase.streams:
                if s.object_name in ("block", "point_p"):
                    assert s.write_fraction == 0.0


class TestBehaviouralContracts:
    """Coarse physics checks; the full Table V shape is a benchmark."""

    def test_streamcluster_native_contends(self, machine):
        run = run_workload(make_parsec("Streamcluster", "native"), machine, 32, 4)
        # Random remote reads self-throttle on latency, so the controller
        # sits below full utilization while observed latencies are clearly
        # contended — the signature DR-BW keys on.
        assert run.result.memctrl.peak_utilization(0) > 0.5
        cols = run.result.bucket_columns
        remote = cols.level == MemLevel.REMOTE_DRAM
        n = cols.n_accesses[remote]
        mean_lat = (cols.mean_latency[remote] * n).sum() / n.sum()
        assert mean_lat > 700

    def test_blackscholes_native_does_not(self, machine):
        run = run_workload(make_parsec("Blackscholes", "native"), machine, 32, 4)
        peak = max(
            run.result.interconnect.peak_utilization(c)
            for c in run.result.interconnect.channels
        )
        assert peak < 0.5

    def test_ep_is_cache_resident(self, machine):
        run = run_workload(make_npb("EP", "C"), machine, 32, 4)
        cols = run.result.bucket_columns
        dram = cols.n_accesses[cols.level >= MemLevel.LOCAL_DRAM].sum()
        total = cols.n_accesses.sum()
        assert dram / total < 0.01

    def test_colocated_bt_never_remote(self, machine):
        run = run_workload(make_npb("BT", "C"), machine, 16, 4)
        cols = run.result.bucket_columns
        remote = cols.n_accesses[cols.level == MemLevel.REMOTE_DRAM].sum()
        assert remote == 0

    def test_irsmk_large_saturates_node0(self, machine):
        run = run_workload(make_irsmk("large"), machine, 32, 4)
        assert run.result.memctrl.peak_utilization(0) > 0.9

    def test_irsmk_small_stays_cool(self, machine):
        run = run_workload(make_irsmk("small"), machine, 32, 4)
        assert run.result.memctrl.peak_utilization(0) < 0.6
