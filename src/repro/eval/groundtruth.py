"""Ground truth via the interleave oracle (Section VII.B).

*"We build our evaluation based on an assumption that remote bandwidth
contention will benefit from memory interleaving ... if the speedup of
the interleaved version exceeds a predefined threshold 10% over the
original code, we believe this benchmark suffers from a contention
issue."*

The oracle runs a workload twice — as written, and with **every** object
re-allocated page-interleaved across all nodes — and compares end-to-end
execution time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.numasim.machine import Machine
from repro.osl.pages import Interleave
from repro.types import Mode
from repro.workloads.base import CompiledWorkload, Workload
from repro.workloads.runner import run_workload

__all__ = ["ORACLE_THRESHOLD", "OracleVerdict", "interleave_oracle", "interleave_everything"]

#: Speedup above which the oracle declares actual contention.
ORACLE_THRESHOLD = 1.10


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one oracle comparison."""

    original_cycles: float
    interleaved_cycles: float

    @property
    def speedup(self) -> float:
        return self.original_cycles / self.interleaved_cycles

    @property
    def mode(self) -> Mode:
        return Mode.RMC if self.speedup > ORACLE_THRESHOLD else Mode.GOOD


def interleave_everything(workload: Workload) -> Workload:
    """The coarse-grained remedy: every object page-interleaved."""
    return workload.with_policies(
        {o.name: Interleave() for o in workload.objects}
    )


def interleave_oracle(
    workload: Workload,
    machine: Machine,
    n_threads: int,
    n_nodes: int,
    compiled: CompiledWorkload | None = None,
) -> OracleVerdict:
    """Run original vs fully-interleaved and compare execution time.

    ``compiled`` is the original workload's compiled binding, when the
    caller runs it again (see :func:`~repro.workloads.runner.run_workload`).
    """
    original = run_workload(workload, machine, n_threads, n_nodes, compiled=compiled)
    interleaved = run_workload(
        interleave_everything(workload), machine, n_threads, n_nodes
    )
    return OracleVerdict(
        original_cycles=original.total_cycles,
        interleaved_cycles=interleaved.total_cycles,
    )
