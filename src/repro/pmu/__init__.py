"""PMU address-sampling substrate (PEBS / IBS / MRK stand-in).

DR-BW relies on hardware address sampling: Intel PEBS with latency
extensions, AMD IBS-op, or IBM MRK events.  Each sample reports the
effective address, the memory level that served it, the access latency in
cycles, and the CPU that issued it (paper, Section IV.A).  This package
reproduces those semantics on top of the machine simulator:

* :mod:`repro.pmu.events` — event descriptors and the platform registry;
* :mod:`repro.pmu.sample` — the :class:`~repro.pmu.sample.MemorySample`
  record;
* :mod:`repro.pmu.sampler` — Poisson thinning of the engine's access
  buckets at the configured period (1-in-2000 by default, per the paper).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.pmu.events": (
        "PmuEvent",
        "MEM_TRANS_RETIRED_LATENCY_ABOVE_THRESHOLD",
    ),
    "repro.pmu.sample": ("MemorySample",),
    "repro.pmu.sampler": ("AddressSampler", "SamplerConfig"),
})
