"""Operating-system layer: virtual memory, NUMA page placement, heap
allocation interception, and thread binding.

This package substitutes for the Linux kernel facilities DR-BW relies on:

* first-touch / bind / interleave page placement (``numactl`` semantics),
* huge pages with a deterministic page-offset → cache-set mapping (needed
  by the bandit micro-benchmark),
* ``malloc``-family interception that records the allocation site and the
  allocated address range (DR-BW's data-object attribution table),
* thread-to-core binding in the paper's ``Tt-Nn`` scheme.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.osl.pages": (
        "PagePlacementPolicy",
        "FirstTouch",
        "BindToNode",
        "Interleave",
        "Replicated",
        "PageTable",
        "VirtualAddressSpace",
    ),
    "repro.osl.alloc": ("DataObject", "HeapAllocator"),
    "repro.osl.threads": ("ThreadBinding", "bind_threads_tt_nn"),
})
