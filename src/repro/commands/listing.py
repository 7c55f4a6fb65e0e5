"""``drbw list``: the available benchmarks and their inputs.

Reads only the benchmark registry, which imports no suite module (and so
no numpy) until a workload is built.
"""

from __future__ import annotations

from repro.workloads.suites.registry import BENCHMARKS


def cmd_list(_args) -> int:
    print(f"{'benchmark':<15}{'suite':<10}{'class':<6} inputs")
    for name, spec in sorted(BENCHMARKS.items()):
        print(f"{name:<15}{spec.suite:<10}{spec.paper_class:<6} "
              f"{', '.join(spec.inputs)}")
    return 0
