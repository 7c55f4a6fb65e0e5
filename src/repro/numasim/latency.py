"""Memory access latency model.

Base (uncontended) latencies follow measured numbers for SandyBridge-EP
class machines: a handful of cycles for L1, tens for L3, ~200 cycles for
local DRAM and ~1.55× that for one-hop remote DRAM.  Under load, a memory
controller or interconnect channel behaves like a queueing server: the
sojourn time grows as utilization ``rho`` approaches 1.  We use the classic
M/M/1 waiting-time shape ``base * rho / (1 - rho)`` with a hard cap so a
saturated resource inflates latency by at most ``max_inflation``.

The *distribution* of sampled latencies matters to DR-BW — five of the
thirteen Table I features are "ratio of samples with latency above T".
We therefore expose a lognormal sampler whose median equals the modeled
latency; its shape parameter reproduces the heavy right tail PEBS shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.types import Channel, MemLevel

__all__ = ["LatencyModel", "LatencyTable", "queueing_delay_factor"]

#: Utilizations are clipped just below 1 before the M/M/1 shape.
_RHO_CEILING = 1.0 - 1e-9


def queueing_delay_factor(rho: float | np.ndarray, max_inflation: float = 20.0) -> float | np.ndarray:
    """Multiplicative latency inflation for a resource at utilization ``rho``.

    Returns ``1 + rho/(1-rho)`` capped at ``max_inflation``; utilizations at
    or above 1 saturate at the cap.  Vectorized over numpy arrays and
    sequences; a scalar (or 0-d array) gives a float.  The engine calls
    this once per fixed-point step, so both paths are plain expressions
    (clip as max-then-min; NaN propagates, as through ``np.clip``).
    """
    if isinstance(rho, np.ndarray) and rho.ndim == 0:
        rho = float(rho)
    if isinstance(rho, (np.ndarray, list, tuple)):
        safe = np.minimum(np.maximum(np.asarray(rho, dtype=np.float64), 0.0), _RHO_CEILING)
        return np.minimum(1.0 + safe / (1.0 - safe), max_inflation)
    safe = min(max(float(rho), 0.0), _RHO_CEILING)
    return float(min(1.0 + safe / (1.0 - safe), max_inflation))


@dataclass(frozen=True)
class LatencyModel:
    """Per-level base latencies (cycles) plus contention inflation rules.

    ``base[level]`` is the uncontended load-to-use latency.  DRAM levels are
    split into a fixed *pipeline* portion (row access, on-die traversal) and
    a *queueable* portion (memory-controller service; plus link transfer for
    remote accesses) — only the queueable portion inflates under load.
    """

    base: dict[MemLevel, float] = field(
        default_factory=lambda: {
            MemLevel.L1: 4.0,
            MemLevel.L2: 12.0,
            MemLevel.L3: 40.0,
            MemLevel.LFB: 60.0,
            MemLevel.LOCAL_DRAM: 200.0,
            MemLevel.REMOTE_DRAM: 310.0,
        }
    )
    #: Fraction of a DRAM access that queues behind the memory controller.
    mc_queue_fraction: float = 0.55
    #: Fraction of a *remote* access that queues behind the interconnect link.
    link_queue_fraction: float = 0.25
    #: Queueing-delay ceiling: saturated controllers plateau rather than
    #: diverge (row-buffer scheduling bounds worst-case sojourn times).
    max_inflation: float = 8.0
    #: Extra DRAM-latency multiplier for *random* access streams: they get
    #: no prefetch overlap and miss open DRAM rows, so the observed
    #: load-to-use latency exceeds a streaming access under equal load.
    random_access_penalty: float = 1.3
    #: Lognormal sigma of sampled latencies around the modeled median.
    #: PEBS latency distributions are wide and right-skewed; 0.4 gives a
    #: p95/median ratio of ~1.9, in line with measured DRAM-latency spreads.
    noise_sigma: float = 0.4

    def base_latency(self, level: MemLevel) -> float:
        """Uncontended latency for ``level`` in cycles."""
        return self.base[level]

    def effective_latency(
        self,
        level: MemLevel,
        mc_rho: float = 0.0,
        link_rho: float = 0.0,
        random_access: bool = False,
    ) -> float:
        """Modeled (median) latency in cycles under the given utilizations.

        ``mc_rho`` is the utilization of the target node's memory
        controller; ``link_rho`` the utilization of the crossed interconnect
        channel (ignored unless ``level`` is remote DRAM).  Cache levels
        never inflate — contention in this model is a main-memory
        phenomenon, matching the paper's focus.
        """
        base = self.base[level]
        if not level.is_dram:
            return base
        mc_factor = queueing_delay_factor(mc_rho, self.max_inflation)
        lat = base * (1.0 - self.mc_queue_fraction) + base * self.mc_queue_fraction * mc_factor
        if level is MemLevel.REMOTE_DRAM:
            link_factor = queueing_delay_factor(link_rho, self.max_inflation)
            # Shift part of the fixed portion into the link queue.
            fixed = lat - base * self.link_queue_fraction
            lat = fixed + base * self.link_queue_fraction * link_factor
        if random_access:
            lat *= self.random_access_penalty
        return lat

    def sample_latencies(
        self,
        median_cycles: float,
        n: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw ``n`` noisy latencies (cycles) with the given median.

        Lognormal with ``sigma = noise_sigma``: median-preserving, strictly
        positive, right-skewed like real PEBS latency distributions.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        if median_cycles <= 0:
            raise ValueError("median latency must be positive")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        return median_cycles * rng.lognormal(mean=0.0, sigma=self.noise_sigma, size=n)


class LatencyTable:
    """Precomputed per-(src_node, dst_node, mem_level) latency constants.

    :meth:`LatencyModel.effective_latency` re-derives the pipeline/queue
    decomposition of every DRAM access on each call; the execution
    engine's columnar solver evaluates latencies for hundreds of rows per
    fixed-point iteration, so this table folds the per-level constants —
    ``pipe = base * (1 - mc_queue_fraction)``, ``mc_part = base *
    mc_queue_fraction``, ``link_part = base * link_queue_fraction`` — once
    at construction.  :meth:`lookup` recombines them with the *exact*
    floating-point operation order of ``effective_latency`` so the two are
    bit-identical for every valid (src, dst, level) triple and utilization
    (property-tested in ``tests/numasim/test_latency_table.py``).

    The table also carries the topology's directed-channel index so a
    remote (src, dst) pair resolves to its interconnect channel without
    rebuilding :class:`~repro.types.Channel` keys in hot loops.
    """

    def __init__(self, model: LatencyModel, topology) -> None:
        self.model = model
        self.n_nodes = int(topology.n_sockets)
        self._base: dict[MemLevel, float] = {}
        self._pipe: dict[MemLevel, float] = {}
        self._mc_part: dict[MemLevel, float] = {}
        self._link_part: dict[MemLevel, float] = {}
        for level, base in model.base.items():
            self._base[level] = base
            if level.is_dram:
                self._pipe[level] = base * (1.0 - model.mc_queue_fraction)
                self._mc_part[level] = base * model.mc_queue_fraction
                self._link_part[level] = base * model.link_queue_fraction
        self.channel_index: dict[Channel, int] = {
            c: i for i, c in enumerate(topology.remote_channels())
        }

    # -- constants for the engine's vectorized kernel ------------------------

    def base_of(self, level: MemLevel) -> float:
        """Uncontended base latency of ``level`` (== ``model.base_latency``)."""
        return self._base[level]

    def pipe(self, level: MemLevel) -> float:
        """Fixed (non-queueable) portion of a DRAM access at ``level``."""
        return self._pipe[level]

    def mc_part(self, level: MemLevel) -> float:
        """Portion of a DRAM access that queues at the memory controller."""
        return self._mc_part[level]

    def link_part(self, level: MemLevel) -> float:
        """Portion of a remote access that queues at the interconnect link."""
        return self._link_part[level]

    # -- scalar parity API ---------------------------------------------------

    def lookup(
        self,
        level: MemLevel,
        src: int,
        dst: int,
        mc_rho: float = 0.0,
        link_rho: float = 0.0,
        random_access: bool = False,
    ) -> float:
        """Latency of a ``src -> dst`` access at ``level``; bit-identical to
        :meth:`LatencyModel.effective_latency` under the same utilizations.

        Cache levels and local DRAM require ``src == dst``; remote DRAM
        requires ``src != dst`` (and a channel between the two nodes).
        """
        n = self.n_nodes
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"node pair ({src}, {dst}) outside [0, {n})")
        if level is MemLevel.REMOTE_DRAM:
            if src == dst:
                raise ValueError("remote DRAM lookup needs src != dst")
        elif src != dst:
            raise ValueError(f"{level.name} lookup needs src == dst")
        base = self._base[level]
        if not level.is_dram:
            return base
        mc_factor = queueing_delay_factor(mc_rho, self.model.max_inflation)
        lat = self._pipe[level] + self._mc_part[level] * mc_factor
        if level is MemLevel.REMOTE_DRAM:
            link_factor = queueing_delay_factor(link_rho, self.model.max_inflation)
            link_part = self._link_part[level]
            lat = (lat - link_part) + link_part * link_factor
        if random_access:
            lat *= self.model.random_access_penalty
        return lat

    def rows(self) -> list[dict]:
        """Uncontended latencies for every valid (src, dst, level) triple.

        Sorted, JSON-ready rows — the shape the interval-level golden
        fixtures pin for two reference topologies.
        """
        out = []
        for level in sorted(self._base, key=int):
            for src in range(self.n_nodes):
                for dst in range(self.n_nodes):
                    remote = level is MemLevel.REMOTE_DRAM
                    if (src == dst) == remote:
                        continue
                    out.append(
                        {
                            "level": level.name,
                            "src": src,
                            "dst": dst,
                            "latency": float(self.lookup(level, src, dst)),
                        }
                    )
        return out
