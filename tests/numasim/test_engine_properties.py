"""Property-based tests over randomized engine programs.

Hypothesis generates small but structurally diverse thread programs
(patterns, placements, thread counts, phase counts) and checks the
engine's global invariants: termination, work conservation, resource
caps, monotonicity, and determinism.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numasim.cachemodel import PatternKind, StreamProfile
from repro.numasim.engine import EnginePhase, EngineStream, ExecutionEngine, ThreadProgram
from repro.numasim.topology import NumaTopology

MB = 1024 * 1024
TOPO = NumaTopology()


@st.composite
def small_programs(draw):
    n_threads = draw(st.integers(min_value=1, max_value=6))
    n_phases = draw(st.integers(min_value=1, max_value=3))
    programs = []
    for t in range(n_threads):
        node = draw(st.integers(min_value=0, max_value=3))
        cpu = TOPO.cpus_of_node(node)[t % 8]
        phases = []
        for p in range(n_phases):
            kind = draw(st.sampled_from(
                [PatternKind.SEQUENTIAL, PatternKind.RANDOM, PatternKind.POINTER_CHASE]
            ))
            target = draw(st.integers(min_value=0, max_value=3))
            nf = np.zeros(4)
            nf[target] = 1.0
            ws = draw(st.sampled_from([1 * MB, 16 * MB, 128 * MB]))
            stream = EngineStream(
                object_id=p,
                region_base=0x10000000 + p * (1 << 30),
                region_bytes=ws,
                profile=StreamProfile(kind=kind, working_set_bytes=ws,
                                      passes=draw(st.sampled_from([1.0, 8.0]))),
                weight=1.0,
                node_fractions=nf,
            )
            phases.append(
                EnginePhase(
                    name=f"p{p}",
                    n_accesses=draw(st.sampled_from([1e4, 1e5])),
                    compute_cycles_per_access=draw(st.sampled_from([0.5, 2.0, 8.0])),
                    streams=(stream,),
                )
            )
        programs.append(ThreadProgram(thread_id=t, cpu=cpu, phases=tuple(phases)))
    return programs


@given(small_programs())
@settings(max_examples=40, deadline=None)
def test_property_engine_invariants(programs):
    engine = ExecutionEngine(TOPO)
    result = engine.run(programs)

    # Termination with positive, finite time.
    assert np.isfinite(result.total_cycles)
    assert result.total_cycles > 0

    # Work conservation: every access lands in exactly one bucket.
    expected = sum(ph.n_accesses for p in programs for ph in p.phases)
    cols = result.bucket_columns
    recorded = float(cols.n_accesses.sum())
    assert recorded == pytest.approx(expected, rel=1e-6)

    # No bucket is empty, negative, or latency-free.
    assert np.all(cols.n_accesses > 0)
    assert np.all(cols.mean_latency > 0)

    # Resource utilizations stay within capacity.
    for node in range(TOPO.n_sockets):
        assert result.memctrl.peak_utilization(node) <= 1.0 + 1e-9
    for ch in result.interconnect.channels:
        assert result.interconnect.peak_utilization(ch) <= 1.0 + 1e-9

    # Every thread finished no later than the run end.
    for tid, fin in result.thread_finish_cycles.items():
        assert 0 < fin <= result.total_cycles + 1e-6


@given(small_programs())
@settings(max_examples=15, deadline=None)
def test_property_engine_deterministic(programs):
    engine = ExecutionEngine(TOPO)
    a = engine.run(programs)
    b = engine.run(programs)
    assert a.total_cycles == b.total_cycles
    x, y = a.bucket_columns, b.bucket_columns
    assert len(x) == len(y)
    assert x.n_accesses == pytest.approx(y.n_accesses)
    assert x.mean_latency == pytest.approx(y.mean_latency)


@given(
    extra=st.floats(min_value=0.0, max_value=4.0),
)
@settings(max_examples=20, deadline=None)
def test_property_overhead_monotone(extra):
    """More injected stall never makes a run faster."""
    nf = np.array([1.0, 0, 0, 0])
    prog = ThreadProgram(
        0, 0,
        (EnginePhase("p", 1e5, 1.0, (EngineStream(
            object_id=0, region_base=0x10000000, region_bytes=64 * MB,
            profile=StreamProfile(kind=PatternKind.SEQUENTIAL,
                                  working_set_bytes=64 * MB),
            weight=1.0, node_fractions=nf),)),),
    )
    engine = ExecutionEngine(TOPO)
    base = engine.run([prog]).total_cycles
    slowed = engine.run([prog], extra_stall_cycles_per_access=extra).total_cycles
    assert slowed >= base - 1e-6
