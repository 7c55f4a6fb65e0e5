"""Property tests: the columnar sample container round-trips losslessly.

``SampleSet.from_arrays`` is the profiler's vectorized path; ``to_samples``
re-materializes per-record :class:`MemorySample` objects for the
object-level APIs.  The two directions must be mutually inverse with no
value drift — int64 and float64 columns come back byte-identical after a
full arrays → samples → arrays cycle.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.features import SampleSet  # noqa: E402
from repro.types import MemLevel  # noqa: E402

_N_NODES = 4


@st.composite
def sample_arrays(draw):
    n = draw(st.integers(min_value=0, max_value=48))

    def ints(lo, hi):
        return np.array(
            draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)),
            dtype=np.int64,
        )

    src = ints(0, _N_NODES - 1)
    # Keep attribution coherent: remote levels get a distinct dst node.
    level = np.array(
        draw(st.lists(st.sampled_from([int(lv) for lv in MemLevel]),
                      min_size=n, max_size=n)),
        dtype=np.int64,
    )
    dst = src.copy()
    remote = level == int(MemLevel.REMOTE_DRAM)
    dst[remote] = (src[remote] + 1) % _N_NODES
    latency = np.array(
        draw(st.lists(
            st.floats(min_value=0.5, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        )),
        dtype=np.float64,
    )
    return dict(
        address=ints(0, 2**40),
        cpu=ints(0, 63),
        thread_id=ints(0, 63),
        level=level,
        latency=latency,
        src_node=src,
        dst_node=dst,
        object_id=ints(0, 12),
    )


_FIELDS = (
    "address", "cpu", "thread_id", "level",
    "latency", "src_node", "dst_node", "object_id",
)


@given(arrays=sample_arrays())
@settings(max_examples=100, deadline=None)
def test_from_arrays_to_samples_round_trip(arrays):
    sset = SampleSet.from_arrays(**arrays)
    assert len(sset) == len(arrays["address"])
    for name in _FIELDS:
        assert getattr(sset, name).tobytes() == arrays[name].tobytes(), name

    samples = sset.to_samples()
    assert len(samples) == len(sset)
    rebuilt = SampleSet(samples)
    for name in _FIELDS:
        assert (
            getattr(rebuilt, name).tobytes() == getattr(sset, name).tobytes()
        ), name

    # Spot-check the per-record view agrees with the columns it came from.
    for i, s in enumerate(samples):
        assert s.level is MemLevel(int(arrays["level"][i]))
        assert s.latency_cycles == float(arrays["latency"][i])
        assert s.is_attributed


def test_from_arrays_rejects_unattributed_and_ragged():
    one = dict(
        address=np.array([1], dtype=np.int64),
        cpu=np.array([0], dtype=np.int64),
        thread_id=np.array([0], dtype=np.int64),
        level=np.array([int(MemLevel.LOCAL_DRAM)], dtype=np.int64),
        latency=np.array([200.0]),
        src_node=np.array([0], dtype=np.int64),
        dst_node=np.array([0], dtype=np.int64),
        object_id=np.array([0], dtype=np.int64),
    )
    from repro.errors import ModelError

    bad = dict(one, src_node=np.array([-1], dtype=np.int64))
    with pytest.raises(ModelError, match="attributed"):
        SampleSet.from_arrays(**bad)
    ragged = dict(one, cpu=np.array([0, 1], dtype=np.int64))
    with pytest.raises(ModelError, match="mismatched length"):
        SampleSet.from_arrays(**ragged)


def _remote_channels_by_set(sset: SampleSet) -> list[tuple[int, int]]:
    """The earlier set-of-pairs formulation, kept as the oracle."""
    remote = (sset.src_node != sset.dst_node) & (
        sset.level == int(MemLevel.REMOTE_DRAM)
    )
    return sorted({
        (int(s), int(d))
        for s, d in zip(sset.src_node[remote], sset.dst_node[remote])
    })


@given(
    arrays=sample_arrays(),
    nodes=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=48),
)
@settings(max_examples=150, deadline=None)
def test_remote_channels_match_the_set_oracle(arrays, nodes):
    # Any node pair, same-node remote records and wide node ids included.
    n = len(arrays["address"])
    if nodes and n:
        pairs = np.array([nodes[i % len(nodes)] for i in range(n)], dtype=np.int64)
        arrays["src_node"], arrays["dst_node"] = pairs[:, 0], pairs[:, 1]
    sset = SampleSet.from_arrays(**arrays)
    got = sset.remote_channels()
    assert [(c.src, c.dst) for c in got] == _remote_channels_by_set(sset)
    assert all(type(c.src) is int and type(c.dst) is int for c in got)


@given(arrays=sample_arrays())
@settings(max_examples=50, deadline=None)
def test_lazy_object_ids_equal_eager(arrays):
    ids = arrays.pop("object_id")
    calls = []

    def lookup(address):
        calls.append(address)
        return ids

    lazy = SampleSet.from_arrays(**arrays, object_id=lookup)
    assert not calls  # nothing attributed until read
    assert lazy.object_id.tobytes() == ids.tobytes()
    assert lazy.object_id.tobytes() == ids.tobytes()
    assert len(calls) == 1 and calls[0] is lazy.address


def test_lazy_object_ids_of_the_wrong_length_are_refused():
    from repro.errors import ModelError

    one = dict(
        address=np.array([1, 2], dtype=np.int64),
        cpu=np.array([0, 0], dtype=np.int64),
        thread_id=np.array([0, 0], dtype=np.int64),
        level=np.array([int(MemLevel.L1)] * 2, dtype=np.int64),
        latency=np.array([4.0, 4.0]),
        src_node=np.array([0, 0], dtype=np.int64),
        dst_node=np.array([0, 0], dtype=np.int64),
    )
    sset = SampleSet.from_arrays(**one, object_id=lambda a: a[:1])
    with pytest.raises(ModelError, match="mismatched length"):
        sset.object_id
