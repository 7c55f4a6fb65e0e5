"""Tests for PEBS-style address sampling."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.numasim.engine import BucketColumns
from repro.numasim.latency import LatencyModel
from repro.osl.pages import PAGE_BYTES, BindToNode, Interleave, PageTable, Replicated
from repro.pmu.sampler import AddressSampler, SamplerConfig
from repro.types import MemLevel

_FLOAT_FIELDS = ("n_accesses", "mean_latency")


def bucket(n_accesses=200_000.0, level=MemLevel.REMOTE_DRAM, dst=1,
           base=0x100000, size=64 * PAGE_BYTES, latency=400.0):
    """One bucket row, in :class:`BucketColumns` field names."""
    return SimpleNamespace(
        thread_id=0, cpu=0, src_node=0, object_id=0,
        region_base=base, region_bytes=size,
        level=int(level), dst_node=dst, n_accesses=n_accesses, mean_latency=latency,
    )


class _FakeRun:
    """A run carrying only the bucket columns the sampler reads."""

    def __init__(self, buckets):
        self.bucket_columns = BucketColumns(**{
            name: np.array(
                [getattr(b, name) for b in buckets],
                dtype=np.float64 if name in _FLOAT_FIELDS else np.int64,
            )
            for name in vars(buckets[0])
        })


@pytest.fixture
def page_table():
    pt = PageTable(n_nodes=4)
    pt.map_range(0x100000, 64 * PAGE_BYTES, Interleave())
    return pt


class TestSamplerConfig:
    def test_defaults_match_paper(self):
        cfg = SamplerConfig()
        assert cfg.period == 2000

    def test_bad_period(self):
        with pytest.raises(ConfigError):
            SamplerConfig(period=0)

    def test_bad_outliers(self):
        with pytest.raises(ConfigError):
            SamplerConfig(outlier_fraction=1.5)
        with pytest.raises(ConfigError):
            SamplerConfig(outlier_scale=(0.5, 2.0))
        with pytest.raises(ConfigError):
            SamplerConfig(tlb_walk_cycles=(100.0, 50.0))


class TestThinning:
    def test_sample_count_near_expectation(self, page_table):
        sampler = AddressSampler(SamplerConfig(seed=1), page_table)
        batch = sampler.sample_run_batch(_FakeRun([bucket(n_accesses=2_000_000)]))
        # Poisson(1000): within 4 sigma.
        assert 870 < len(batch) < 1130

    def test_period_scales_counts(self, page_table):
        lo = AddressSampler(SamplerConfig(period=4000, seed=1), page_table)
        hi = AddressSampler(SamplerConfig(period=500, seed=1), page_table)
        run = _FakeRun([bucket(n_accesses=2_000_000)])
        assert len(hi.sample_run_batch(run)) > 4 * len(lo.sample_run_batch(run))

    def test_tiny_bucket_often_unsampled(self, page_table):
        sampler = AddressSampler(SamplerConfig(seed=3), page_table)
        batch = sampler.sample_run_batch(_FakeRun([bucket(n_accesses=10.0)]))
        assert len(batch) <= 2


class TestAddressConsistency:
    def test_dram_sample_addresses_live_on_target_node(self, page_table):
        sampler = AddressSampler(SamplerConfig(seed=2), page_table)
        batch = sampler.sample_run_batch(_FakeRun([bucket(dst=2)]))
        assert len(batch) > 0
        nodes = page_table.nodes_of_addresses(batch.address)
        assert np.all(nodes == 2)

    def test_addresses_stay_inside_region(self, page_table):
        sampler = AddressSampler(SamplerConfig(seed=2), page_table)
        b = bucket()
        batch = sampler.sample_run_batch(_FakeRun([b]))
        assert np.all(batch.address >= b.region_base)
        assert np.all(batch.address < b.region_base + b.region_bytes)

    def test_cache_level_addresses_unconstrained_by_node(self, page_table):
        sampler = AddressSampler(SamplerConfig(seed=2), page_table)
        batch = sampler.sample_run_batch(
            _FakeRun([bucket(level=MemLevel.L1, latency=4.0)])
        )
        nodes = page_table.nodes_of_addresses(batch.address)
        assert len(set(nodes.tolist())) > 1  # interleaved region, any page

    def test_placement_mismatch_drops_bucket(self):
        pt = PageTable(n_nodes=4)
        pt.map_range(0x100000, 4 * PAGE_BYTES, BindToNode(0))
        sampler = AddressSampler(SamplerConfig(seed=2), pt)
        # Bucket claims node 3, but no pages live there.
        batch = sampler.sample_run_batch(
            _FakeRun([bucket(dst=3, size=4 * PAGE_BYTES)])
        )
        assert len(batch) == 0

    def test_replicated_region_sampled(self):
        pt = PageTable(n_nodes=4)
        pt.map_range(0x100000, 4 * PAGE_BYTES, Replicated())
        sampler = AddressSampler(SamplerConfig(seed=2), pt)
        batch = sampler.sample_run_batch(
            _FakeRun([bucket(dst=2, size=4 * PAGE_BYTES)])
        )
        assert len(batch) > 0


class TestLatencies:
    def test_latency_centered_on_bucket_mean(self, page_table):
        cfg = SamplerConfig(seed=4, outlier_fraction=0.0, tlb_walk_fraction=0.0)
        sampler = AddressSampler(cfg, page_table, LatencyModel(noise_sigma=0.3))
        batch = sampler.sample_run_batch(_FakeRun([bucket(latency=500.0)]))
        assert np.median(batch.latency) == pytest.approx(500.0, rel=0.1)

    def test_latencies_respect_event_floor(self, page_table):
        sampler = AddressSampler(SamplerConfig(seed=4), page_table)
        batch = sampler.sample_run_batch(
            _FakeRun([bucket(level=MemLevel.L1, latency=4.0)])
        )
        assert np.all(batch.latency >= sampler.config.event.min_latency_cycles)

    def test_outliers_fatten_tail(self, page_table):
        quiet = SamplerConfig(seed=5, outlier_fraction=0.0, tlb_walk_fraction=0.0)
        noisy = SamplerConfig(seed=5, outlier_fraction=0.2, tlb_walk_fraction=0.0)
        run = _FakeRun([bucket(latency=300.0, n_accesses=4_000_000)])
        q = AddressSampler(quiet, page_table).sample_run_batch(run)
        n = AddressSampler(noisy, page_table).sample_run_batch(run)
        assert np.percentile(n.latency, 99) > np.percentile(q.latency, 99) * 1.5

    def test_tlb_walks_push_small_latencies_high(self, page_table):
        cfg = SamplerConfig(seed=6, outlier_fraction=0.0, tlb_walk_fraction=0.5)
        sampler = AddressSampler(cfg, page_table)
        batch = sampler.sample_run_batch(
            _FakeRun([bucket(level=MemLevel.L1, latency=4.0, n_accesses=1_000_000)])
        )
        assert np.sum(batch.latency > 500) > 0.3 * len(batch)


class TestDeterminism:
    def test_same_seed_same_samples(self, page_table):
        run = _FakeRun([bucket()])
        a = AddressSampler(SamplerConfig(seed=9), page_table).sample_run_batch(run)
        b = AddressSampler(SamplerConfig(seed=9), page_table).sample_run_batch(run)
        assert np.array_equal(a.address, b.address)
        assert np.array_equal(a.latency, b.latency)

    def test_different_seed_differs(self, page_table):
        run = _FakeRun([bucket()])
        a = AddressSampler(SamplerConfig(seed=9), page_table).sample_run_batch(run)
        b = AddressSampler(SamplerConfig(seed=10), page_table).sample_run_batch(run)
        assert not np.array_equal(a.address, b.address)

    def test_sample_run_list_wrapper(self, page_table):
        run = _FakeRun([bucket()])
        samples = AddressSampler(SamplerConfig(seed=9), page_table).sample_run(run)
        assert all(s.cpu == 0 for s in samples)
        assert len(samples) > 0
