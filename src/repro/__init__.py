"""DR-BW reproduction: identifying NUMA bandwidth contention with
supervised learning.

This package reproduces the system of *"DR-BW: Identifying Bandwidth
Contention in NUMA Architectures with Supervised Learning"* (IPDPS 2017)
on a simulated NUMA machine:

* :mod:`repro.numasim` — the machine substrate (topology, caches,
  bandwidth, latency, execution engine);
* :mod:`repro.osl` — the OS layer (pages, NUMA policies, heap allocation
  interception, thread binding);
* :mod:`repro.pmu` — PEBS-style address sampling;
* :mod:`repro.workloads` — the workload DSL, the training mini-programs,
  and analogs of the paper's 23 evaluation benchmarks;
* :mod:`repro.core` — DR-BW itself: profiler, features, decision tree,
  classifier, and root-cause diagnoser;
* :mod:`repro.optim` — the co-locate / interleave / replicate remedies;
* :mod:`repro.eval` — drivers regenerating every table and figure.

Quickstart::

    from repro import Machine, DrBwProfiler, Diagnoser
    from repro.core.training import train_default_classifier
    from repro.core.classifier import classify_case
    from repro.workloads.suites import benchmark

    machine = Machine()
    classifier, _ = train_default_classifier(machine)
    profiler = DrBwProfiler(machine)
    profile = profiler.profile(benchmark("Streamcluster").build("native"),
                               n_threads=32, n_nodes=4)
    labels = classifier.classify_profile(profile)
    report = Diagnoser().diagnose(profile, labels)
    print(report.top(3))
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.diagnoser": ("Diagnoser",),
    "repro.core.classifier": ("DrBwClassifier",),
    "repro.core.profiler": ("DrBwProfiler",),
    "repro.numasim.machine": ("Machine",),
    "repro.types": ("Channel", "MemLevel", "Mode"),
})
__all__ = [*__all__, "__version__"]
