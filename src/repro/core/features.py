"""Feature extraction from attributed memory samples.

Table I of the paper lists the 13 features DR-BW selected:

==  ==========================================================
 1  Ratio of latency above 1000 among all samples
 2  Ratio of latency above 500 among all samples
 3  Ratio of latency above 200 among all samples
 4  Ratio of latency above 100 among all samples
 5  Ratio of latency above 50 among all samples
 6  # of remote dram access sample
 7  Average remote dram access latency
 8  # of local dram access sample
 9  Average local dram access latency
10  Total # of memory access sample
11  Average memory access latency
12  Total # of line fill buffer access sample
13  Line fill buffer access latency
==  ==========================================================

Features are computed **per channel** (Section IV.B): for the directed
channel ``s → d`` the remote features (6, 7) use only samples observed on
that channel, while the context features (1-5, 8-13) use all samples issued
from the source node ``s`` — the population whose latency distribution the
channel's contention distorts.

The module also exposes the *candidate* feature list (Section V.B's three
"statistics" categories) used by :mod:`repro.core.selection` to rediscover
Table I, and :class:`SampleSet`, a columnar view over attributed samples
that makes extraction vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import InsufficientSamplesError, ModelError
from repro.pmu.sample import MemorySample
from repro.types import Channel, MemLevel

__all__ = [
    "LATENCY_THRESHOLDS",
    "TABLE1_FEATURE_NAMES",
    "FeatureVector",
    "SampleSet",
    "channel_sample_counts",
    "extract_channel_features",
    "remote_channel_codes",
    "candidate_features",
]

#: Latency thresholds (cycles) for features 1-5, most severe first.
LATENCY_THRESHOLDS: tuple[int, ...] = (1000, 500, 200, 100, 50)

TABLE1_FEATURE_NAMES: tuple[str, ...] = (
    "ratio_latency_above_1000",
    "ratio_latency_above_500",
    "ratio_latency_above_200",
    "ratio_latency_above_100",
    "ratio_latency_above_50",
    "num_remote_dram_samples",
    "avg_remote_dram_latency",
    "num_local_dram_samples",
    "avg_local_dram_latency",
    "num_total_samples",
    "avg_latency",
    "num_lfb_samples",
    "avg_lfb_latency",
)


@dataclass(frozen=True)
class FeatureVector:
    """A named feature vector for one (run, channel) observation."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (len(self.names),):
            raise ModelError(
                f"feature vector has {v.shape} values for {len(self.names)} names"
            )
        if not np.all(np.isfinite(v)):
            raise ModelError("feature vector contains non-finite values")
        object.__setattr__(self, "values", v)

    def __getitem__(self, name: str) -> float:
        try:
            return float(self.values[self.names.index(name)])
        except ValueError:
            raise ModelError(f"no feature named {name!r}") from None

    def as_dict(self) -> dict[str, float]:
        """Name → value mapping."""
        return {n: float(v) for n, v in zip(self.names, self.values)}


class SampleSet:
    """Columnar view over attributed memory samples.

    Keeps one numpy array per field so feature extraction is a handful of
    vectorized masks rather than a Python loop per sample.
    """

    def __init__(self, samples: list[MemorySample]) -> None:
        n = len(samples)
        self._init_arrays(
            address=np.fromiter((s.address for s in samples), dtype=np.int64, count=n),
            cpu=np.fromiter((s.cpu for s in samples), dtype=np.int64, count=n),
            thread_id=np.fromiter((s.thread_id for s in samples), dtype=np.int64, count=n),
            level=np.fromiter((int(s.level) for s in samples), dtype=np.int64, count=n),
            latency=np.fromiter((s.latency_cycles for s in samples), dtype=np.float64, count=n),
            src_node=np.fromiter((s.src_node for s in samples), dtype=np.int64, count=n),
            dst_node=np.fromiter((s.dst_node for s in samples), dtype=np.int64, count=n),
            object_id=np.fromiter((s.object_id for s in samples), dtype=np.int64, count=n),
        )

    @classmethod
    def from_arrays(
        cls,
        address: np.ndarray,
        cpu: np.ndarray,
        thread_id: np.ndarray,
        level: np.ndarray,
        latency: np.ndarray,
        src_node: np.ndarray,
        dst_node: np.ndarray,
        object_id: np.ndarray | Callable[[np.ndarray], np.ndarray],
    ) -> "SampleSet":
        """Columnar constructor (the profiler's vectorized path).

        ``object_id`` is either the per-sample ids or a lookup from the
        address column to them (the allocator's
        ``object_ids_of_addresses``), called on the first read of
        :attr:`object_id` — only the diagnoser reads it, so a profile
        that is only classified never attributes its samples.
        """
        obj = cls.__new__(cls)
        obj._init_arrays(
            address=np.asarray(address, dtype=np.int64),
            cpu=np.asarray(cpu, dtype=np.int64),
            thread_id=np.asarray(thread_id, dtype=np.int64),
            level=np.asarray(level, dtype=np.int64),
            latency=np.asarray(latency, dtype=np.float64),
            src_node=np.asarray(src_node, dtype=np.int64),
            dst_node=np.asarray(dst_node, dtype=np.int64),
            object_id=(
                object_id if callable(object_id)
                else np.asarray(object_id, dtype=np.int64)
            ),
        )
        return obj

    def _init_arrays(self, object_id, **fields: np.ndarray) -> None:
        n = fields["address"].shape[0]
        for name, arr in fields.items():
            if arr.shape != (n,):
                raise ModelError(f"sample field {name} has mismatched length")
            setattr(self, name, arr)
        self.n = n
        self._object_id = object_id
        if not callable(object_id):
            self._check_object_id()
        if n and (np.any(self.src_node < 0) or np.any(self.dst_node < 0)):
            raise ModelError("SampleSet requires attributed samples (src/dst nodes set)")

    def _check_object_id(self) -> None:
        if self._object_id.shape != (self.n,):
            raise ModelError("sample field object_id has mismatched length")

    @property
    def object_id(self) -> np.ndarray:
        """Heap object id per sample (``-1`` when unattributed)."""
        if callable(self._object_id):
            self._object_id = np.asarray(self._object_id(self.address), dtype=np.int64)
            self._check_object_id()
        return self._object_id

    def to_samples(self) -> list[MemorySample]:
        """Materialize per-record samples (attributed)."""
        from repro.types import MemLevel as _ML

        return [
            MemorySample(
                address=int(self.address[i]),
                cpu=int(self.cpu[i]),
                thread_id=int(self.thread_id[i]),
                level=_ML(int(self.level[i])),
                latency_cycles=float(self.latency[i]),
                src_node=int(self.src_node[i]),
                dst_node=int(self.dst_node[i]),
                object_id=int(self.object_id[i]),
            )
            for i in range(self.n)
        ]

    def __len__(self) -> int:
        return self.n

    # -- masks -----------------------------------------------------------------

    def from_node(self, node: int) -> np.ndarray:
        """Mask of samples issued by CPUs on ``node``."""
        return self.src_node == node

    def on_channel(self, channel: Channel) -> np.ndarray:
        """Mask of samples whose (src, dst) matches ``channel``."""
        return (self.src_node == channel.src) & (self.dst_node == channel.dst)

    def at_level(self, level: MemLevel) -> np.ndarray:
        """Mask of samples served at ``level``."""
        return self.level == int(level)

    def remote_channels(self) -> list[Channel]:
        """Distinct remote channels with at least one DRAM sample, sorted."""
        _, codes, k = remote_channel_codes(self.src_node, self.dst_node, self.level)
        distinct, _ = np.unique(codes, return_counts=True)
        src, dst = np.divmod(distinct, k)
        return [Channel(s, d) for s, d in zip(src.tolist(), dst.tolist())]


def remote_channel_codes(
    src_node: np.ndarray, dst_node: np.ndarray, level: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Remote-DRAM samples keyed by channel as one integer per sample.

    Returns ``(remote, codes, k)``: the mask of remote-DRAM samples
    (``src != dst`` at :attr:`MemLevel.REMOTE_DRAM`), each masked sample's
    code ``src * k + dst``, and the radix ``k`` (one more than the largest
    masked ``dst``).  Codes sort in ``(src, dst)`` order, so ``np.unique``
    over them lists channels as a sort of the pairs would, and
    ``divmod(code, k)`` gives the pair back.  Callers ask ``np.unique`` for
    counts even when they drop them: that is its sorting path, which on
    these arrays beats the hash path numpy takes otherwise (and which
    imports ``numpy.ma`` on first use, after the service reports ready).
    """
    remote = (src_node != dst_node) & (level == int(MemLevel.REMOTE_DRAM))
    dst = dst_node[remote]
    k = int(dst.max()) + 1 if dst.size else 1
    return remote, src_node[remote] * k + dst, k


def _mean(values: np.ndarray) -> float:
    """Mean that treats an empty selection as 0 (no samples, no signal)."""
    return float(values.mean()) if values.size else 0.0


def channel_sample_counts(samples: SampleSet, channel: Channel) -> tuple[int, int]:
    """(source-node samples, remote-DRAM samples on the channel).

    The two populations the Table I features are computed over — callers
    use these to decide whether a channel has enough data to classify.
    """
    src_mask = samples.from_node(channel.src)
    chan_remote = samples.on_channel(channel) & samples.at_level(MemLevel.REMOTE_DRAM)
    return int(src_mask.sum()), int(chan_remote.sum())


def extract_channel_features(
    samples: SampleSet, channel: Channel, min_samples: int = 0
) -> FeatureVector:
    """The 13 Table I features for ``channel``.

    Remote-DRAM features (6, 7) come from the channel's own samples; the
    remaining context features come from every sample issued by the
    channel's source node.

    ``min_samples`` is a degradation guard: when the source-node
    population is smaller, the averages and threshold ratios are sampling
    noise, so the extractor raises :class:`InsufficientSamplesError`
    rather than emit a vector that *looks* trustworthy.  The default of 0
    keeps the permissive behavior (empty selections yield zeros — the
    features are NaN-safe by construction).
    """
    if not channel.is_remote:
        raise ModelError(f"features are defined for remote channels, got {channel}")
    src_mask = samples.from_node(channel.src)
    lat_src = samples.latency[src_mask]
    n_src = int(src_mask.sum())
    if n_src < min_samples:
        raise InsufficientSamplesError(
            f"channel {channel} has {n_src} source-node samples, "
            f"below the floor of {min_samples}"
        )

    chan_remote = samples.on_channel(channel) & samples.at_level(MemLevel.REMOTE_DRAM)
    lat_remote = samples.latency[chan_remote]

    local_dram = src_mask & samples.at_level(MemLevel.LOCAL_DRAM)
    lat_local = samples.latency[local_dram]

    lfb = src_mask & samples.at_level(MemLevel.LFB)
    lat_lfb = samples.latency[lfb]

    ratios = [
        float((lat_src > t).mean()) if n_src else 0.0 for t in LATENCY_THRESHOLDS
    ]
    values = np.array(
        ratios
        + [
            float(chan_remote.sum()),
            _mean(lat_remote),
            float(local_dram.sum()),
            _mean(lat_local),
            float(n_src),
            _mean(lat_src),
            float(lfb.sum()),
            _mean(lat_lfb),
        ]
    )
    # Belt-and-braces against degraded inputs (e.g. overflow-wrapped
    # latencies aggregated over tiny populations): the classifier must
    # never see a non-finite feature.  Identity for finite values.
    values = np.nan_to_num(values, nan=0.0, posinf=0.0, neginf=0.0)
    return FeatureVector(names=TABLE1_FEATURE_NAMES, values=values)


# ---------------------------------------------------------------------------
# Candidate features (Section V.B) for the selection experiment.
# ---------------------------------------------------------------------------

def candidate_features(samples: SampleSet, channel: Channel, topology_nodes: int) -> FeatureVector:
    """The full candidate list the paper screened before choosing Table I.

    Three categories of derived statistics:

    * *Statistics identification* — sample counts by issuing node, CPU
      parity, and thread spread;
    * *Statistics location* — counts per memory level;
    * *Statistics latency* — threshold ratios and per-level average
      latencies.

    Includes the Table I features as a subset plus the known-irrelevant
    ones (e.g. the LLC-miss remote count analog), so the selection screen
    has something to reject.
    """
    table1 = extract_channel_features(samples, channel)
    src_mask = samples.from_node(channel.src)
    lat_src = samples.latency[src_mask]

    extra_names: list[str] = []
    extra_vals: list[float] = []

    # Statistics identification.
    for node in range(topology_nodes):
        extra_names.append(f"num_samples_from_node_{node}")
        extra_vals.append(float(samples.from_node(node).sum()))
    extra_names.append("num_distinct_threads_src")
    extra_vals.append(float(np.unique(samples.thread_id[src_mask]).size))
    extra_names.append("num_distinct_cpus_src")
    extra_vals.append(float(np.unique(samples.cpu[src_mask]).size))

    # Statistics location.
    for lvl in (MemLevel.L1, MemLevel.L2, MemLevel.L3):
        m = src_mask & samples.at_level(lvl)
        extra_names.append(f"num_{lvl.name.lower()}_hit")
        extra_vals.append(float(m.sum()))
    l3_miss = src_mask & (
        samples.at_level(MemLevel.LOCAL_DRAM)
        | samples.at_level(MemLevel.REMOTE_DRAM)
        | samples.at_level(MemLevel.LFB)
    )
    extra_names.append("num_l3_miss")
    extra_vals.append(float(l3_miss.sum()))
    dram = src_mask & (
        samples.at_level(MemLevel.LOCAL_DRAM) | samples.at_level(MemLevel.REMOTE_DRAM)
    )
    extra_names.append("num_dram_access")
    extra_vals.append(float(dram.sum()))
    # The counting-event analog the paper explicitly found unhelpful:
    # remote-DRAM count over *all* channels, not the diagnosed one.
    all_remote = (samples.src_node != samples.dst_node) & samples.at_level(
        MemLevel.REMOTE_DRAM
    )
    extra_names.append("num_llc_miss_remote_dram_all_channels")
    extra_vals.append(float(all_remote.sum()))

    # Statistics latency.
    for lvl in (MemLevel.L1, MemLevel.L2, MemLevel.L3):
        m = src_mask & samples.at_level(lvl)
        extra_names.append(f"avg_{lvl.name.lower()}_latency")
        extra_vals.append(_mean(samples.latency[m]))
    extra_names.append("max_latency")
    extra_vals.append(float(lat_src.max()) if lat_src.size else 0.0)
    extra_names.append("p95_latency")
    extra_vals.append(float(np.percentile(lat_src, 95)) if lat_src.size else 0.0)

    return FeatureVector(
        names=table1.names + tuple(extra_names),
        values=np.concatenate([table1.values, np.array(extra_vals, dtype=np.float64)]),
    )
