"""NUMA machine simulator substrate.

This package stands in for the paper's physical testbed (a 4-socket Intel
Xeon E5-4650).  It provides:

* :mod:`repro.numasim.topology` — sockets, cores, SMT, channel enumeration;
* :mod:`repro.numasim.cache` — exact set-associative LRU caches (used by the
  bandit micro-benchmark and by tests);
* :mod:`repro.numasim.cachemodel` — analytical hit-fraction model used by the
  fast epoch engine;
* :mod:`repro.numasim.latency` — base latencies plus queueing-delay inflation;
* :mod:`repro.numasim.fairness` — max-min fair bandwidth allocation;
* :mod:`repro.numasim.interconnect` / :mod:`repro.numasim.memctrl` —
  bandwidth-limited resources;
* :mod:`repro.numasim.engine` — piecewise-stationary execution engine;
* :mod:`repro.numasim.machine` — the :class:`~repro.numasim.machine.Machine`
  facade tying everything together.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.numasim.topology": ("CacheSpec", "NumaTopology"),
    "repro.numasim.latency": ("LatencyModel",),
    "repro.numasim.machine": ("Machine",),
})
