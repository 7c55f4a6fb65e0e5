"""Tests for the DR-BW profiler (sampling + attribution)."""

import numpy as np
import pytest

from repro.core.profiler import DrBwProfiler, ProfilerConfig
from repro.pmu.sampler import SamplerConfig
from repro.types import Channel, MemLevel
from repro.workloads.micro import make_sumv
from tests.conftest import MB, make_stream_workload


@pytest.fixture
def profiler(machine):
    return DrBwProfiler(machine)


class TestProfiling:
    def test_samples_attributed(self, profiler):
        profile = profiler.profile(make_sumv(256 * MB), 8, 2, seed=1)
        s = profile.sample_set
        assert len(s) > 100
        assert np.all(s.src_node >= 0)
        assert np.all(s.dst_node >= 0)

    def test_source_node_matches_cpu(self, profiler, machine):
        profile = profiler.profile(make_sumv(256 * MB), 8, 2, seed=1)
        s = profile.sample_set
        topo = machine.topology
        for cpu, src in zip(s.cpu[:200], s.src_node[:200]):
            assert topo.node_of_cpu(int(cpu)) == src

    def test_target_node_matches_page_table(self, profiler):
        profile = profiler.profile(make_sumv(256 * MB), 8, 2, seed=1)
        s = profile.sample_set
        pt = profile.compiled.page_table
        dram = (s.level == int(MemLevel.REMOTE_DRAM)) | (
            s.level == int(MemLevel.LOCAL_DRAM)
        )
        idx = np.nonzero(dram)[0][:100]
        for i in idx:
            assert pt.node_of_address(int(s.address[i])) == s.dst_node[i]

    def test_heap_attribution(self, profiler):
        profile = profiler.profile(make_sumv(256 * MB), 8, 2, seed=1)
        s = profile.sample_set
        vid = profile.compiled.objects["v"].object_id
        attributed = np.sum(s.object_id == vid)
        assert attributed / len(s) > 0.95

    def test_static_objects_unattributed(self, profiler):
        wl = make_stream_workload(size_bytes=256 * MB)
        wl = wl.__class__(
            name=wl.name,
            objects=tuple(
                type(o)(name=o.name, size_bytes=o.size_bytes, site=o.site,
                        policy=o.policy, is_heap=False)
                for o in wl.objects
            ),
            phases=wl.phases,
        )
        profile = profiler.profile(wl, 4, 1, seed=1)
        assert np.all(profile.sample_set.object_id == -1)

    def test_remote_channels_detected(self, profiler):
        # First-touch node 0, threads on two nodes: channel 1->0 carries data.
        profile = profiler.profile(make_sumv(512 * MB), 16, 2, seed=1)
        assert Channel(1, 0) in profile.channels_with_remote_samples()

    def test_features_per_channel_keys(self, profiler):
        profile = profiler.profile(make_sumv(512 * MB), 16, 2, seed=1)
        per = profile.features_per_channel()
        for ch, fv in per.items():
            assert ch.is_remote
            assert fv["num_remote_dram_samples"] >= 1

    def test_seed_controls_sampling(self, profiler):
        a = profiler.profile(make_sumv(256 * MB), 4, 1, seed=1)
        b = profiler.profile(make_sumv(256 * MB), 4, 1, seed=1)
        c = profiler.profile(make_sumv(256 * MB), 4, 1, seed=2)
        assert np.array_equal(a.sample_set.address, b.sample_set.address)
        assert len(a.sample_set) != len(c.sample_set) or not np.array_equal(
            a.sample_set.address, c.sample_set.address
        )

    def test_samples_property_materializes(self, profiler):
        profile = profiler.profile(make_sumv(64 * MB), 2, 1, seed=1)
        samples = profile.samples
        assert len(samples) == len(profile.sample_set)
        assert samples[0].is_attributed


class TestOverheadModel:
    def test_profiling_costs_cycles(self, profiler):
        plain, profiled, overhead = profiler.measure_overhead(
            make_sumv(64 * MB), 4, 1
        )
        assert profiled > plain
        assert 0 < overhead < 0.25

    def test_stall_per_access_scales_with_period(self, machine):
        fast = ProfilerConfig(sampler=SamplerConfig(period=500))
        slow = ProfilerConfig(sampler=SamplerConfig(period=4000))
        assert fast.stall_per_access > slow.stall_per_access

    def test_profiled_run_matches_config(self, profiler):
        profile = profiler.profile(make_sumv(64 * MB), 2, 1, seed=1)
        assert profile.run.result.extra_stall_cycles == pytest.approx(
            profiler.config.stall_per_access
        )


class TestDroppedSampleReport:
    """Degradation-ledger edge cases (see also tests/test_faults.py)."""

    def test_zero_observed_drop_fraction_is_zero(self):
        from repro.core.profiler import DroppedSampleReport

        report = DroppedSampleReport()
        assert report.observed == 0
        assert report.drop_fraction == 0.0
        assert report.is_clean

    def test_quarantine_without_observed_still_divides_safely(self):
        from repro.core.profiler import DroppedSampleReport

        report = DroppedSampleReport()
        report.count("unmapped_address", 3)
        assert report.drop_fraction == 0.0  # no observed denominator
        assert not report.is_clean

    def test_injected_only_faults_are_not_clean(self):
        from repro.core.profiler import DroppedSampleReport

        report = DroppedSampleReport(observed=100, kept=100)
        report.injected["dropped"] = 5
        assert report.total_quarantined == 0
        assert report.drop_fraction == 0.0
        # A corruption that still mapped somewhere quarantines nothing,
        # but the run is not clean: the ledger must say so.
        assert not report.is_clean

    def test_zero_valued_injected_counters_stay_clean(self):
        from repro.core.profiler import DroppedSampleReport

        report = DroppedSampleReport(observed=10, kept=10)
        report.injected["dropped"] = 0
        assert report.is_clean

    def test_resample_attempts_alone_break_cleanliness(self):
        from repro.core.profiler import DroppedSampleReport

        report = DroppedSampleReport(observed=10, kept=10, resample_attempts=2)
        assert not report.is_clean

    def test_count_ignores_zero_and_accumulates(self):
        from repro.core.profiler import DroppedSampleReport

        report = DroppedSampleReport()
        report.count("lookup_failure", 0)
        assert report.quarantined == {}
        report.count("lookup_failure", 2)
        report.count("lookup_failure", 3)
        assert report.quarantined == {"lookup_failure": 5}
        assert report.total_quarantined == 5


class _TwoLookupProfiler(DrBwProfiler):
    """Attribution with its own second page-table lookup on the surviving
    samples, instead of reusing the collection pass's lookup."""

    def _collect_inner(self, run, sampler_cfg, report, attempt):
        self._compiled = run.compiled
        return super()._collect_inner(run, sampler_cfg, report, attempt)

    def _attribute_inner(self, batch, dst, report):
        compiled = self._compiled
        lookup_failed = dst < 0
        if np.any(lookup_failed):
            batch = batch.select(~lookup_failed)
        topo = self.machine.topology
        src = (batch.cpu % topo.n_cores) // topo.cores_per_socket
        return {
            "address": batch.address,
            "cpu": batch.cpu,
            "thread_id": batch.thread_id,
            "level": batch.level,
            "latency": batch.latency,
            "src_node": np.asarray(src, dtype=np.int64),
            "dst_node": compiled.page_table.nodes_of_addresses(
                batch.address, accessor_nodes=src
            ),
        }


class TestSingleLookup:
    """The collection pass's page-table lookup is reused for attribution,
    also under a faulty page table and on the resample path."""

    @staticmethod
    def _attributed(profiler_cls, machine):
        from repro.core.classifier import MIN_CHANNEL_SUPPORT
        from repro.faults import parse_fault_plan

        passes = []

        class Recording(profiler_cls):
            def _attribute_inner(self, *args):
                fields = super()._attribute_inner(*args)
                passes.append(fields)
                return fields

        cfg = ProfilerConfig(
            faults=parse_fault_plan("standard"),
            resample_floor=MIN_CHANNEL_SUPPORT,
            resample_attempts=3,
        )
        profile = Recording(machine, cfg).profile(make_sumv(256 * MB), 8, 2, seed=3)
        return passes, profile.dropped, profile

    def test_fields_match_a_second_lookup(self, machine):
        got, got_report, _ = self._attributed(DrBwProfiler, machine)
        want, want_report, _ = self._attributed(_TwoLookupProfiler, machine)
        # The case exercises both paths: injected lookup failures, and
        # resample passes after the first one.
        assert got_report.injected.get("lookup_failure", 0) > 0
        assert got_report.resample_attempts > 0
        assert len(got) == len(want) == 1 + got_report.resample_attempts
        for g, w in zip(got, want):
            assert g.keys() == w.keys()
            for key in g:
                assert g[key].dtype == w[key].dtype, key
                assert g[key].tobytes() == w[key].tobytes(), key
        assert got_report == want_report

    def test_object_ids_are_the_final_addresses_lookup(self, machine):
        """Object ids are attributed on first read, over the kept and
        resampled addresses, with the same table an eager pass would use."""
        _, report, profile = self._attributed(DrBwProfiler, machine)
        assert report.resample_attempts > 0
        samples = profile.sample_set
        assert callable(samples._object_id)
        want = profile.compiled.allocator.object_ids_of_addresses(samples.address)
        assert samples.object_id.tobytes() == want.tobytes()
        assert samples.object_id.dtype == np.int64
        assert np.any(samples.object_id >= 0)

    def test_live_object_ids_are_lazy_and_match_the_eager_lookup(self, machine):
        """``profile_live`` streams no object ids; its result attributes
        them on first read, equal to the eager lookup of the final
        addresses."""
        from repro.faults import parse_fault_plan

        class Sink:
            interval_cycles = 4e6
            streamed = 0

            def observe_interval(self, record, fields, observed=0, quarantined=0):
                assert "object_id" not in fields
                self.streamed += len(fields["address"])

        sink = Sink()
        cfg = ProfilerConfig(faults=parse_fault_plan("standard"))
        profile = DrBwProfiler(machine, cfg).profile_live(
            make_sumv(256 * MB), 8, 2, monitor=sink, seed=3
        )
        samples = profile.sample_set
        assert len(samples) == sink.streamed > 0
        assert callable(samples._object_id)
        want = profile.compiled.allocator.object_ids_of_addresses(samples.address)
        assert samples.object_id.tobytes() == want.tobytes()
        assert samples.object_id.dtype == np.int64
        assert np.any(samples.object_id >= 0)
