"""Synthetic analogs of the paper's 23 evaluation benchmarks.

The decision tree never reads program text — it only sees sampled memory
behaviour.  Each analog therefore reproduces the *memory behaviour* of its
benchmark: which objects are allocated (and by whom, fixing first-touch
placement), how threads share them, per-phase access patterns and compute
intensity.  The contention outcome per configuration is **emergent** from
the bandwidth model, not scripted; the per-benchmark parameters are chosen
so the interleave-oracle ground truth matches the paper's Table IV/V
classes.

* :mod:`repro.workloads.suites.npb` — NAS Parallel Benchmarks (BT, CG, DC,
  EP, FT, IS, LU, MG, UA, SP);
* :mod:`repro.workloads.suites.parsec` — Blackscholes, Bodytrack, Ferret,
  Fluidanimate, Freqmine, Raytrace, Swaptions, X264, Streamcluster;
* :mod:`repro.workloads.suites.rodinia` — Needleman-Wunsch (NW);
* :mod:`repro.workloads.suites.sequoia` — AMG2006, IRSmk;
* :mod:`repro.workloads.suites.lulesh` — LULESH;
* :mod:`repro.workloads.suites.registry` — one
  :class:`~repro.workloads.suites.registry.BenchmarkSpec` per benchmark
  with its input list and Table V case bookkeeping.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.suites.registry": (
        "BenchmarkSpec",
        "BENCHMARKS",
        "benchmark",
        "benchmark_names",
    ),
})
