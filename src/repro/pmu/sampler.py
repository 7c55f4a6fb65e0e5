"""PEBS-style address sampling over engine access buckets.

The engine summarizes a run as buckets of homogeneous accesses (same
thread, object, level, target node, similar latency).  Real PEBS arms a
counter and fires roughly once per ``period`` accesses per thread; for a
bucket of ``n`` accesses the number of samples is Binomial(n, 1/period),
which we draw as Poisson(n/period) — the engine's ``n`` is a (possibly
fractional) expectation, and the thinning of a point process is Poisson.

Addresses are fabricated to be *consistent with page placement*: a sample
whose bucket targets node ``d`` gets an address on one of the region's
pages that actually lives on node ``d``, so the profiler's
``numa_node_of_address`` lookup round-trips correctly.

Latencies are drawn from the latency model's lognormal noise around the
bucket mean, plus a small fraction of *interference outliers* — TLB walks,
OS jitter, pipeline stalls — multiplying the latency several-fold.  The
paper leans on exactly this runtime variation to argue that single
latency-threshold heuristics are unreliable (Sections I and II.B); the
outliers make the "ratio above T" features realistically noisy so the
classifier has to learn the remote-count × remote-latency structure
instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.numasim.engine import IntervalRecord, RunResult
from repro.numasim.latency import LatencyModel
from repro.osl.pages import PageTable
from repro.pmu.events import (
    MEM_TRANS_RETIRED_LATENCY_ABOVE_THRESHOLD,
    PmuEvent,
)
from repro.pmu.sample import MemorySample, RawSampleBatch
from repro.types import MemLevel

__all__ = ["SamplerConfig", "AddressSampler"]


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling parameters (paper: one of every 2000 accesses per thread)."""

    period: int = 2000
    event: PmuEvent = MEM_TRANS_RETIRED_LATENCY_ABOVE_THRESHOLD
    seed: int = 0
    #: Fraction of samples hit by an interference outlier, and the
    #: multiplier range applied to their latency.
    outlier_fraction: float = 0.03
    outlier_scale: tuple[float, float] = (4.0, 15.0)
    #: Fraction of samples whose latency includes a TLB page walk, and the
    #: additive cycle range of the walk.  PEBS measures the whole load, so
    #: a walk pushes even an L1 hit past the "latency above 1000" bucket —
    #: this is the runtime variation the paper cites when arguing against
    #: single latency-threshold heuristics.
    tlb_walk_fraction: float = 0.01
    tlb_walk_cycles: tuple[float, float] = (500.0, 1500.0)

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConfigError(f"sampling period must be >= 1, got {self.period}")
        if not self.event.suits_drbw:
            raise ConfigError(
                f"event {self.event.name!r} lacks address/latency/level reporting"
            )
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ConfigError("outlier_fraction must be in [0, 1)")
        lo, hi = self.outlier_scale
        if lo < 1.0 or hi < lo:
            raise ConfigError("outlier_scale must satisfy 1 <= lo <= hi")
        if not 0.0 <= self.tlb_walk_fraction < 1.0:
            raise ConfigError("tlb_walk_fraction must be in [0, 1)")
        tlo, thi = self.tlb_walk_cycles
        if tlo < 0 or thi < tlo:
            raise ConfigError("tlb_walk_cycles must satisfy 0 <= lo <= hi")


class AddressSampler:
    """Thin a run's access buckets into sample batches."""

    def __init__(
        self,
        config: SamplerConfig,
        page_table: PageTable,
        latency_model: LatencyModel | None = None,
    ) -> None:
        self.config = config
        self.page_table = page_table
        self.latency_model = latency_model or LatencyModel()
        self._rng = np.random.default_rng(config.seed)
        # Candidate-page sets per (region, level, dst) — page placement is
        # fixed for the table this sampler was built against, so the lookup
        # is pure; caching it keeps the streaming path (many small interval
        # batches over the same regions) as cheap as the batch path.  The
        # page scans themselves are memoized on the table
        # (PageTable.pages_on_node), so a new sampler over a shared run
        # rebuilds this dict without rescanning.
        self._page_cache: dict[tuple[int, int, int, int], np.ndarray | None | bool] = {}
        # Single-slot cache of the per-row candidate-page layout for the
        # last BucketRates table seen by sample_interval.  Every interval
        # sliced from one stationary span shares the same table object, so
        # resolving candidate pages once per span (not once per interval)
        # turns the streaming path's per-interval setup into pure array
        # indexing.  Keyed by identity; spans arrive sequentially so one
        # slot always hits within a span.
        self._span_pages: tuple[object, tuple[np.ndarray, ...]] | None = None

    def sample_run_batch(self, run: RunResult) -> RawSampleBatch:
        """Columnar samples for a whole run (the fast path).

        Consumes the engine's :class:`~repro.numasim.engine.BucketColumns`
        directly, with no per-bucket objects or batch allocations.  The
        RNG draw order per bucket (Poisson, addresses, lognormal,
        outliers) matches the historical per-bucket path exactly, so the
        produced stream is bit-identical to it.
        """
        cols = run.bucket_columns
        rng = self._rng
        poisson = rng.poisson
        integers = rng.integers
        lognormal = rng.lognormal
        random = rng.random
        uniform = rng.uniform
        count_nonzero = np.count_nonzero
        period = self.config.period
        page = self.page_table.page_bytes
        cache = self._page_cache
        sigma = self.latency_model.noise_sigma
        out_frac = self.config.outlier_fraction
        out_lo, out_hi = self.config.outlier_scale
        tlb_frac = self.config.tlb_walk_fraction
        tlb_lo, tlb_hi = self.config.tlb_walk_cycles
        dram_lvls = {int(lvl) for lvl in MemLevel if lvl.is_dram}
        n_acc = cols.n_accesses.tolist()
        means = cols.mean_latency.tolist()
        bases = cols.region_base.tolist()
        sizes = cols.region_bytes.tolist()
        lvls = cols.level.tolist()
        dsts = cols.dst_node.tolist()
        cpus = cols.cpu.tolist()
        tids = cols.thread_id.tolist()

        addr_parts: list[np.ndarray] = []
        lat_parts: list[np.ndarray] = []
        reps: list[int] = []
        cpu_vals: list[int] = []
        tid_vals: list[int] = []
        lvl_vals: list[int] = []
        for i in range(len(n_acc)):
            n = int(poisson(n_acc[i] / period))
            if n == 0:
                continue
            if lvls[i] in dram_lvls:
                key = (bases[i], sizes[i], lvls[i], dsts[i])
                try:
                    cand = cache[key]
                except KeyError:
                    cand = self._candidate_pages_key(key)
                if cand is False:
                    continue
            else:
                cand = None  # cache-level rows are never page-constrained
            base = bases[i]
            if cand is None:
                addrs = integers(0, sizes[i], size=n, dtype=np.int64)
                addrs += base
            else:
                # Same bitstream as rng.choice(cand, size=n), minus its
                # per-call validation overhead.
                addrs = cand[integers(0, cand.size, size=n)]
                addrs *= page
                addrs += integers(0, page, size=n, dtype=np.int64)
                addrs += base
                np.minimum(addrs, base + sizes[i] - 1, out=addrs)
            lats = lognormal(mean=0.0, sigma=sigma, size=n)
            lats *= means[i]
            # Outlier / TLB-walk injection, inlined from _inject_outliers
            # (identical draws; ``lats`` is fresh so mutation is safe).
            if out_frac > 0:
                hit = random(n) < out_frac
                n_hit = int(count_nonzero(hit))
                if n_hit:
                    lats[hit] *= uniform(out_lo, out_hi, size=n_hit)
            if tlb_frac > 0:
                walk = random(n) < tlb_frac
                n_walk = int(count_nonzero(walk))
                if n_walk:
                    lats[walk] += uniform(tlb_lo, tlb_hi, size=n_walk)
            addr_parts.append(addrs)
            lat_parts.append(lats)
            reps.append(n)
            cpu_vals.append(cpus[i])
            tid_vals.append(tids[i])
            lvl_vals.append(lvls[i])

        if not addr_parts:
            return RawSampleBatch.empty().permuted(rng)
        floor = max(self.config.event.min_latency_cycles, 1)
        reps_arr = np.asarray(reps, dtype=np.int64)
        batch = RawSampleBatch(
            address=np.concatenate(addr_parts),
            cpu=np.repeat(np.asarray(cpu_vals, dtype=np.int64), reps_arr),
            thread_id=np.repeat(np.asarray(tid_vals, dtype=np.int64), reps_arr),
            level=np.repeat(np.asarray(lvl_vals, dtype=np.int64), reps_arr),
            latency=np.maximum(np.concatenate(lat_parts), floor),
        )
        return batch.permuted(rng)

    def sample_run(self, run: RunResult) -> list[MemorySample]:
        """Per-record samples (convenience wrapper over the batch path)."""
        return self.sample_run_batch(run).to_samples()

    def sample_interval(self, record: IntervalRecord) -> RawSampleBatch:
        """Thin one monitoring interval's access rates (the streaming path).

        One vectorized Poisson draw covers every row of the interval's
        shared :class:`~repro.numasim.engine.BucketRates` table, and sample
        fabrication (addresses, lognormal latencies, outliers) is grouped
        across rows rather than per bucket — the streaming path must stay
        cheap enough to run once per monitoring interval.  Thinning a
        Poisson process interval-by-interval is distributionally identical
        to thinning the whole run at once, so streaming collection feeds
        the classifier the same statistics as :meth:`sample_run_batch`.
        """
        r = record.rates
        expected = r.rate * (record.duration_cycles / self.config.period)
        draws = self._rng.poisson(expected)
        rows = np.nonzero(draws)[0]
        if rows.size == 0:
            return RawSampleBatch.empty()

        # Row → candidate-page layout, resolved once per span's shared
        # rates table; rows whose page placement no longer matches
        # (npages -2) are dropped like the batch path does.
        start, npages, pages = self._span_layout(r)
        ok = npages[rows] != -2
        if not np.any(ok):
            return RawSampleBatch.empty()
        rows = rows[ok]
        counts = draws[rows]
        total = int(counts.sum())

        addresses = self._interval_addresses(r, rows, counts, start, npages, pages, total)
        medians = np.repeat(r.latency[rows], counts)
        latencies = medians * self._rng.lognormal(
            mean=0.0, sigma=self.latency_model.noise_sigma, size=total
        )
        latencies = self._inject_outliers(latencies)
        floor = max(self.config.event.min_latency_cycles, 1)
        latencies = np.maximum(latencies, floor)

        batch = RawSampleBatch(
            address=addresses,
            cpu=np.repeat(r.cpu[rows], counts),
            thread_id=np.repeat(r.thread_id[rows], counts),
            level=np.repeat(r.level[rows], counts),
            latency=latencies.astype(np.float64),
        )
        return batch.permuted(self._rng)

    def _span_layout(self, rates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row candidate-page layout for one shared rates table.

        Returns ``(start, npages, pages)``: ``pages`` concatenates each
        distinct memoized candidate-page set the table's rows use, and
        row ``i``'s set is ``pages[start[i]:start[i] + npages[i]]``.
        ``npages[i]`` is ``-2`` for rows whose page placement no longer
        matches (drop) and ``-1`` for rows without page constraints
        (uniform offsets).

        Resolution involves no RNG, so caching it per table is invisible
        to the sample stream.  Single-slot memo: intervals of one span all
        carry the same table object (see ``BucketRates``).
        """
        cached = self._span_pages
        if cached is not None and cached[0] is rates:
            return cached[1]
        cache = self._page_cache
        n = len(rates)
        start = np.zeros(n, dtype=np.int64)
        npages = np.empty(n, dtype=np.int64)
        parts: list[np.ndarray] = []
        start_of: dict[int, int] = {}
        end = 0
        keys = zip(
            rates.region_base.tolist(), rates.region_bytes.tolist(),
            rates.level.tolist(), rates.dst_node.tolist(),
        )
        for i, key in enumerate(keys):
            try:
                cand = cache[key]
            except KeyError:
                cand = self._candidate_pages_key(key)
            if cand is False:
                npages[i] = -2
            elif cand is None:
                npages[i] = -1
            else:
                at = start_of.get(id(cand))
                if at is None:
                    at = start_of[id(cand)] = end
                    parts.append(cand)
                    end += cand.size
                start[i] = at
                npages[i] = cand.size
        pages = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        layout = (start, npages, pages)
        self._span_pages = (rates, layout)
        return layout

    def _interval_addresses(
        self,
        rates,
        rows: np.ndarray,
        counts: np.ndarray,
        start: np.ndarray,
        npages: np.ndarray,
        pages: np.ndarray,
        total: int,
    ) -> np.ndarray:
        """Fabricate addresses for all drawn rows in a few vector draws.

        Rows without page constraints draw uniform offsets in one shot;
        one pair of draws covers every page-constrained sample, which
        then picks a page from its row's candidate set in the span's
        :meth:`_span_layout`.
        """
        base_ps = np.repeat(rates.region_base[rows], counts)
        size_ps = np.repeat(rates.region_bytes[rows], counts)
        npages_ps = np.repeat(npages[rows], counts)

        addresses = np.empty(total, dtype=np.int64)
        unconstrained = npages_ps < 0
        n_u = int(unconstrained.sum())
        if n_u:
            offsets = (self._rng.random(n_u) * size_ps[unconstrained]).astype(np.int64)
            addresses[unconstrained] = base_ps[unconstrained] + offsets
        page = self.page_table.page_bytes
        n_paged = total - n_u
        if n_paged:
            pick = self._rng.random(n_paged)
            in_page = self._rng.integers(0, page, size=n_paged, dtype=np.int64)
            paged = ~unconstrained
            base = base_ps[paged]
            idx = np.repeat(start[rows], counts)[paged]
            idx += (pick * npages_ps[paged]).astype(np.int64)
            addresses[paged] = np.minimum(
                base + pages[idx] * page + in_page, base + size_ps[paged] - 1
            )
        return addresses

    # -- internals -------------------------------------------------------------

    def _inject_outliers(self, latencies: np.ndarray) -> np.ndarray:
        if latencies.size == 0:
            return latencies
        rng = self._rng
        out = latencies
        frac = self.config.outlier_fraction
        if frac > 0:
            hit = rng.random(out.size) < frac
            n_hit = int(hit.sum())
            if n_hit:
                lo, hi = self.config.outlier_scale
                out = out.copy()
                out[hit] *= rng.uniform(lo, hi, size=n_hit)
        tfrac = self.config.tlb_walk_fraction
        if tfrac > 0:
            walk = rng.random(out.size) < tfrac
            n_walk = int(walk.sum())
            if n_walk:
                tlo, thi = self.config.tlb_walk_cycles
                if out is latencies:
                    out = out.copy()
                out[walk] += rng.uniform(tlo, thi, size=n_walk)
        return out

    def _candidate_pages_key(
        self, key: tuple[int, int, int, int]
    ) -> np.ndarray | None | bool:
        """Resolve (and memoize) candidate pages for a cache-miss ``key``.

        ``None`` means any offset in the region is fine; ``False`` means the
        placement no longer matches and the bucket must be dropped.
        """
        base, size, lvl, dst = key
        candidate_pages: np.ndarray | None | bool
        if MemLevel(lvl).is_dram and self.page_table.is_mapped(base):
            if self.page_table.is_replicated(base):
                # Replicated object: any page is fine, locality is by accessor.
                candidate_pages = None
            else:
                pages = self.page_table.pages_on_node(base, size, dst)
                # An empty set means placement changed between run and
                # sampling; drop quietly (mirrors PEBS races where a page
                # migrates mid-run).
                candidate_pages = pages if pages.size else False
        else:
            candidate_pages = None
        self._page_cache[key] = candidate_pages
        return candidate_pages
