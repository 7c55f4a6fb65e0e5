"""Optimization transforms guided by DR-BW's diagnosis (Section VIII).

Three remedies the paper applies to blamed data objects:

* :mod:`repro.optim.colocate` — split a chunk-partitioned object and place
  each chunk on its computing thread's node (AMG2006, IRSmk, LULESH, NW);
* :mod:`repro.optim.interleave` — round-robin pages across nodes, either
  per object or whole-program (the coarse baseline, and the only option
  for untracked static data as in SP);
* :mod:`repro.optim.replicate` — one read-only copy per node for shared
  never-written data (Streamcluster's ``block``);
* :mod:`repro.optim.speedup` — measure a transform's end-to-end effect.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.optim.colocate": ("colocate_objects",),
    "repro.optim.interleave": ("interleave_objects",),
    "repro.optim.replicate": ("replicate_objects",),
    "repro.optim.speedup": ("SpeedupResult", "measure_speedup"),
})
