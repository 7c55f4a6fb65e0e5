"""Workload descriptions and compilation to engine programs.

A workload is a declarative description of a multithreaded program's memory
behaviour: named data objects (with allocation sites and NUMA policies) and
phases of stationary access streams.  Compilation binds it to a machine
topology and a ``Tt-Nn`` thread binding, allocates the objects through the
OS layer, and emits :class:`~repro.numasim.engine.ThreadProgram` IR.

* :mod:`repro.workloads.base` — the DSL and compiler;
* :mod:`repro.workloads.micro` — the paper's training mini-programs
  (sumv, dotv, countv);
* :mod:`repro.workloads.bandit` — the single-threaded bandwidth bandit;
* :mod:`repro.workloads.suites` — analogs of the 23 evaluation benchmarks.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.base": (
        "ObjectSpec",
        "StreamSpec",
        "PhaseSpec",
        "Workload",
        "CompiledWorkload",
        "compile_workload",
        "Share",
    ),
    "repro.workloads.runner": ("run_workload",),
})
