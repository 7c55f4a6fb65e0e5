"""Convenience runner: bind, compile, execute a workload in one call."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.numasim.engine import RunResult
from repro.numasim.machine import Machine
from repro.osl.threads import bind_threads_tt_nn
from repro.workloads.base import CompiledWorkload, Workload, compile_workload

__all__ = ["WorkloadRun", "compile_bound", "run_workload"]


@dataclass
class WorkloadRun:
    """A finished run plus the compiled state behind it."""

    compiled: CompiledWorkload
    result: RunResult

    @property
    def total_cycles(self) -> float:
        return self.result.total_cycles


def compile_bound(
    workload: Workload, machine: Machine, n_threads: int, n_nodes: int
) -> CompiledWorkload:
    """Bind ``Tt-Nn`` on ``machine`` and compile ``workload`` for it."""
    bindings = bind_threads_tt_nn(machine.topology, n_threads, n_nodes)
    return compile_workload(workload, machine.topology, bindings)


def run_workload(
    workload: Workload,
    machine: Machine,
    n_threads: int,
    n_nodes: int,
    extra_stall_cycles_per_access: float = 0.0,
    interval_listener=None,
    interval_max_cycles: float | None = None,
    compiled: CompiledWorkload | None = None,
) -> WorkloadRun:
    """Run ``workload`` under the ``Tt-Nn`` binding on ``machine``.

    ``interval_listener`` / ``interval_max_cycles`` forward to the engine's
    streaming hook (see :meth:`repro.numasim.engine.ExecutionEngine.run`).
    ``compiled`` is ``workload`` already compiled by :func:`compile_bound`
    for the same binding; a run does not modify it, so runs of one
    workload may share it instead of compiling again.
    """
    if compiled is None:
        compiled = compile_bound(workload, machine, n_threads, n_nodes)
    elif compiled.workload is not workload or compiled.bindings != bind_threads_tt_nn(
        machine.topology, n_threads, n_nodes
    ):
        raise WorkloadError(
            f"compiled workload {compiled.workload.name!r} is not "
            f"{workload.name!r} bound T{n_threads}-N{n_nodes}"
        )
    result = machine.run(
        compiled.programs,
        barriers=workload.barriers,
        extra_stall_cycles_per_access=extra_stall_cycles_per_access,
        interval_listener=interval_listener,
        interval_max_cycles=interval_max_cycles,
    )
    return WorkloadRun(compiled=compiled, result=result)
