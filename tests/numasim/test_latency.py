"""Tests for the latency model."""

import numpy as np
import pytest

from repro.numasim.latency import LatencyModel, queueing_delay_factor
from repro.types import MemLevel


class TestQueueingDelayFactor:
    def test_idle_is_unit(self):
        assert queueing_delay_factor(0.0) == pytest.approx(1.0)

    def test_monotone_in_utilization(self):
        rhos = np.linspace(0.0, 0.99, 50)
        factors = queueing_delay_factor(rhos)
        assert np.all(np.diff(factors) >= 0)

    def test_capped_at_max_inflation(self):
        assert queueing_delay_factor(0.9999, max_inflation=8.0) == pytest.approx(8.0)
        assert queueing_delay_factor(1.5, max_inflation=8.0) == pytest.approx(8.0)

    def test_half_load(self):
        # M/M/1: 1 + 0.5/0.5 = 2.
        assert queueing_delay_factor(0.5) == pytest.approx(2.0)

    def test_vectorized_matches_scalar(self):
        rhos = np.array([0.0, 0.3, 0.7, 0.95])
        vec = queueing_delay_factor(rhos)
        for r, v in zip(rhos, vec):
            assert queueing_delay_factor(float(r)) == pytest.approx(v)


def _numpy_delay_factor(rho, max_inflation=20.0):
    """The earlier np.asarray/np.clip formulation, kept as the oracle."""
    rho_arr = np.asarray(rho, dtype=np.float64)
    safe = np.clip(rho_arr, 0.0, 1.0 - 1e-9)
    factor = 1.0 + safe / (1.0 - safe)
    result = np.minimum(factor, max_inflation)
    if np.isscalar(rho) or (isinstance(rho, np.ndarray) and rho.ndim == 0):
        return float(result)
    return result


class TestDelayFactorBits:
    """The plain-expression factor is bit-identical to the numpy one."""

    EDGES = [0.0, -0.0, -1e-300, -0.5, -3.0, 1e-12, 0.5, 1.0 - 1e-9, 1.0 - 1e-10,
             1.0, 1.0 + 1e-12, 1.5, 1e9, float("inf"), -float("inf"), float("nan")]

    @staticmethod
    def _values():
        rng = np.random.default_rng(2017)
        grid = np.concatenate([
            np.array(TestDelayFactorBits.EDGES),
            rng.uniform(-0.5, 1.5, 4000),
            1.0 - rng.uniform(0.0, 1e-6, 500),
        ])
        return grid

    @pytest.mark.parametrize("cap", [8.0, 20.0, 8, 1e300])
    def test_scalars(self, cap):
        for r in self._values().tolist():
            for rho in (r, np.float64(r), np.array(r)):
                got = queueing_delay_factor(rho, cap)
                want = _numpy_delay_factor(rho, cap)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), rho

    @pytest.mark.parametrize("cap", [8.0, 20.0, 8])
    def test_arrays(self, cap):
        grid = self._values()
        for rho in (grid, grid.reshape(-1, 4), grid[:12], grid[:0], list(grid[:12])):
            got = queueing_delay_factor(rho, cap)
            want = _numpy_delay_factor(rho, cap)
            assert isinstance(got, np.ndarray)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_integer_inputs(self):
        for rho in (0, 1, 2, -1, np.array([0, 1, 2])):
            got = queueing_delay_factor(rho, 8.0)
            want = _numpy_delay_factor(rho, 8.0)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestLatencyModel:
    def setup_method(self):
        self.model = LatencyModel()

    def test_base_ordering(self):
        """The hierarchy must be monotone: L1 < L2 < L3 < local < remote."""
        lats = [
            self.model.base_latency(l)
            for l in (MemLevel.L1, MemLevel.L2, MemLevel.L3,
                      MemLevel.LOCAL_DRAM, MemLevel.REMOTE_DRAM)
        ]
        assert lats == sorted(lats)
        assert lats[0] < lats[-1]

    def test_remote_local_ratio(self):
        """One-hop remote ~1.5-1.6x local, as on SNB-EP."""
        ratio = self.model.base_latency(MemLevel.REMOTE_DRAM) / self.model.base_latency(
            MemLevel.LOCAL_DRAM
        )
        assert 1.3 < ratio < 2.0

    def test_cache_levels_never_inflate(self):
        for lvl in (MemLevel.L1, MemLevel.L2, MemLevel.L3, MemLevel.LFB):
            assert self.model.effective_latency(lvl, mc_rho=0.99) == pytest.approx(
                self.model.base_latency(lvl)
            )

    def test_dram_inflates_with_mc_load(self):
        idle = self.model.effective_latency(MemLevel.LOCAL_DRAM, mc_rho=0.0)
        busy = self.model.effective_latency(MemLevel.LOCAL_DRAM, mc_rho=0.95)
        assert idle == pytest.approx(self.model.base_latency(MemLevel.LOCAL_DRAM))
        assert busy > 2 * idle

    def test_remote_inflates_with_link_load_too(self):
        mc_only = self.model.effective_latency(MemLevel.REMOTE_DRAM, mc_rho=0.9)
        both = self.model.effective_latency(MemLevel.REMOTE_DRAM, mc_rho=0.9, link_rho=0.9)
        assert both > mc_only

    def test_link_load_ignored_for_local(self):
        a = self.model.effective_latency(MemLevel.LOCAL_DRAM, mc_rho=0.5, link_rho=0.0)
        b = self.model.effective_latency(MemLevel.LOCAL_DRAM, mc_rho=0.5, link_rho=0.99)
        assert a == pytest.approx(b)

    def test_random_access_penalty(self):
        seq = self.model.effective_latency(MemLevel.REMOTE_DRAM, mc_rho=0.5)
        rnd = self.model.effective_latency(
            MemLevel.REMOTE_DRAM, mc_rho=0.5, random_access=True
        )
        assert rnd == pytest.approx(seq * self.model.random_access_penalty)

    def test_saturated_latency_bounded(self):
        """The cap keeps saturated latencies finite and sane."""
        lat = self.model.effective_latency(MemLevel.REMOTE_DRAM, mc_rho=1.0, link_rho=1.0)
        base = self.model.base_latency(MemLevel.REMOTE_DRAM)
        assert lat <= base * self.model.max_inflation * 1.5


class TestLatencySampling:
    def setup_method(self):
        self.model = LatencyModel()
        self.rng = np.random.default_rng(0)

    def test_median_preserved(self):
        draws = self.model.sample_latencies(500.0, 40_000, self.rng)
        assert np.median(draws) == pytest.approx(500.0, rel=0.03)

    def test_positive_and_right_skewed(self):
        draws = self.model.sample_latencies(300.0, 20_000, self.rng)
        assert np.all(draws > 0)
        assert draws.mean() > np.median(draws)  # lognormal skew

    def test_zero_draws(self):
        assert self.model.sample_latencies(100.0, 0, self.rng).size == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            self.model.sample_latencies(0.0, 10, self.rng)
        with pytest.raises(ValueError):
            self.model.sample_latencies(100.0, -1, self.rng)
