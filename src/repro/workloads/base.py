"""The workload DSL and its compiler.

A :class:`Workload` declares *what a program does to memory*: which data
objects it allocates (with sizes, allocation sites, and NUMA policies) and
which phases of stationary access streams its threads execute.  The
compiler (:func:`compile_workload`) binds the description to a concrete
machine and thread binding:

1. objects are allocated through the simulated heap allocator, which maps
   their pages under the declared NUMA policy and records the allocation
   table entry DR-BW will attribute samples against;
2. each thread's streams are resolved to address regions — its private
   chunk for OpenMP-style partitioned loops, or the whole object for shared
   access — and the page table converts each region into per-node traffic
   fractions;
3. the result is plain engine IR plus the OS-layer state needed later for
   sampling, attribution, and optimization.

The ``colocate`` flag on a stream-partitioned object asks the compiler to
place every page on the node of the thread whose chunk contains it — the
paper's *co-locate* optimization expressed at the allocation point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import WorkloadError
from repro.numasim.cachemodel import PatternKind, StreamProfile
from repro.numasim.engine import EnginePhase, EngineStream, ThreadProgram
from repro.numasim.topology import NumaTopology
from repro.osl.alloc import DataObject, HeapAllocator
from repro.osl.libnuma import LibNuma
from repro.osl.pages import (
    ExplicitPlacement,
    FirstTouch,
    PagePlacementPolicy,
    PageTable,
    Replicated,
    VirtualAddressSpace,
)
from repro.osl.threads import ThreadBinding

__all__ = [
    "Share",
    "ObjectSpec",
    "StreamSpec",
    "PhaseSpec",
    "Workload",
    "CompiledWorkload",
    "compile_workload",
]


class Share(enum.Enum):
    """How threads divide an object."""

    #: OpenMP static-for: thread ``t`` of ``T`` touches its contiguous 1/T slice.
    CHUNK = "chunk"
    #: Every thread touches the whole object.
    ALL = "all"


@dataclass(frozen=True)
class ObjectSpec:
    """A named data object the workload allocates."""

    name: str
    size_bytes: int
    site: str
    policy: PagePlacementPolicy | None = None  # None -> FirstTouch(0)
    is_heap: bool = True
    huge_pages: bool = False
    #: Place each page on the node of the thread whose CHUNK contains it.
    colocate: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise WorkloadError(f"object {self.name!r} has non-positive size")
        if self.colocate and self.policy is not None:
            raise WorkloadError(
                f"object {self.name!r}: colocate and an explicit policy conflict"
            )


@dataclass(frozen=True)
class StreamSpec:
    """One access stream within a phase."""

    object_name: str
    pattern: PatternKind
    share: Share = Share.CHUNK
    weight: float = 1.0
    element_bytes: int = 8
    stride_bytes: int | None = None
    passes: float = 1.0
    write_fraction: float = 0.0
    chains: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise WorkloadError(f"stream weight must be in (0, 1]: {self.weight}")


@dataclass(frozen=True)
class PhaseSpec:
    """A stationary phase executed by every thread.

    When ``accesses_are_total`` is set, ``accesses_per_thread`` holds the
    phase's *total* access count and the compiler divides it evenly among
    threads — the natural way to express a parallel loop over a fixed-size
    vector, where more threads each do less work.
    """

    name: str
    accesses_per_thread: float
    compute_cycles_per_access: float
    streams: tuple[StreamSpec, ...]
    accesses_are_total: bool = False
    #: Optional per-thread ceiling: a thread simulates at most this many
    #: accesses of its share (a stationary sampling window over the phase).
    max_accesses_per_thread: float | None = None
    #: Serial phase: only the master thread (thread 0) executes it; the
    #: others wait at the phase barrier (e.g. AMG2006's initialization).
    single_thread: bool = False

    def __post_init__(self) -> None:
        if self.accesses_per_thread < 0:
            raise WorkloadError(f"phase {self.name!r}: negative access count")
        if self.accesses_per_thread > 0:
            total = sum(s.weight for s in self.streams)
            if abs(total - 1.0) > 1e-6:
                raise WorkloadError(
                    f"phase {self.name!r}: stream weights sum to {total}"
                )

    def thread_accesses(self, n_threads: int, thread_id: int = 0) -> float:
        """Accesses thread ``thread_id`` of ``n_threads`` performs here."""
        if self.single_thread:
            per_thread = self.accesses_per_thread if thread_id == 0 else 0.0
        elif self.accesses_are_total:
            per_thread = self.accesses_per_thread / n_threads
        else:
            per_thread = self.accesses_per_thread
        if self.max_accesses_per_thread is not None:
            per_thread = min(per_thread, self.max_accesses_per_thread)
        return per_thread


@dataclass(frozen=True)
class Workload:
    """A complete program description."""

    name: str
    objects: tuple[ObjectSpec, ...]
    phases: tuple[PhaseSpec, ...]
    barriers: bool = True

    def __post_init__(self) -> None:
        names = [o.name for o in self.objects]
        if len(set(names)) != len(names):
            raise WorkloadError(f"workload {self.name!r}: duplicate object names")
        known = set(names)
        for phase in self.phases:
            for stream in phase.streams:
                if stream.object_name not in known:
                    raise WorkloadError(
                        f"workload {self.name!r}: phase {phase.name!r} references "
                        f"unknown object {stream.object_name!r}"
                    )

    def object_spec(self, name: str) -> ObjectSpec:
        """Look up an object by name."""
        for o in self.objects:
            if o.name == name:
                return o
        raise WorkloadError(f"no object {name!r} in workload {self.name!r}")

    def with_policies(self, policies: dict[str, PagePlacementPolicy]) -> "Workload":
        """A copy with some objects' NUMA policies replaced (optimizer hook)."""
        unknown = set(policies) - {o.name for o in self.objects}
        if unknown:
            raise WorkloadError(f"unknown objects in policy map: {sorted(unknown)}")
        new_objects = tuple(
            replace(o, policy=policies[o.name], colocate=False)
            if o.name in policies
            else o
            for o in self.objects
        )
        return replace(self, objects=new_objects)

    def with_accesses(
        self,
        phase_name: str,
        total_accesses: float,
        max_accesses_per_thread: float | None = None,
    ) -> "Workload":
        """A copy with one phase's total access budget (and per-thread cap) set."""
        found = False
        new_phases = []
        for p in self.phases:
            if p.name == phase_name:
                found = True
                new_phases.append(
                    replace(
                        p,
                        accesses_per_thread=total_accesses,
                        accesses_are_total=True,
                        max_accesses_per_thread=max_accesses_per_thread,
                    )
                )
            else:
                new_phases.append(p)
        if not found:
            raise WorkloadError(f"no phase {phase_name!r} in workload {self.name!r}")
        return replace(self, phases=tuple(new_phases))

    def with_colocation(self, names: set[str]) -> "Workload":
        """A copy with the named objects flagged for chunk co-location."""
        unknown = names - {o.name for o in self.objects}
        if unknown:
            raise WorkloadError(f"unknown objects for colocation: {sorted(unknown)}")
        new_objects = tuple(
            replace(o, colocate=True, policy=None) if o.name in names else o
            for o in self.objects
        )
        return replace(self, objects=new_objects)


@dataclass
class CompiledWorkload:
    """Engine IR plus the OS-layer state behind it."""

    workload: Workload
    programs: list[ThreadProgram]
    bindings: list[ThreadBinding]
    page_table: PageTable
    allocator: HeapAllocator
    libnuma: LibNuma
    objects: dict[str, DataObject] = field(default_factory=dict)

    @property
    def n_threads(self) -> int:
        return len(self.programs)


def _chunk_bounds(size_bytes: int, tid: int, n_threads: int, element_bytes: int) -> tuple[int, int]:
    """Byte range [start, end) of thread ``tid``'s contiguous chunk.

    Chunks are element-aligned, like an OpenMP static schedule over the
    element index space.
    """
    n_elems = size_bytes // element_bytes
    if n_elems < n_threads:
        raise WorkloadError(
            f"object of {n_elems} elements cannot be chunked over {n_threads} threads"
        )
    lo = (tid * n_elems) // n_threads
    hi = ((tid + 1) * n_elems) // n_threads
    return lo * element_bytes, hi * element_bytes


def _colocation_placement(
    spec: ObjectSpec,
    bindings: list[ThreadBinding],
    page_bytes: int,
    element_bytes: int,
) -> ExplicitPlacement:
    """Per-page nodes placing each chunk on its owning thread's node."""
    n_threads = len(bindings)
    n_pages = -(-spec.size_bytes // page_bytes)
    nodes = np.zeros(n_pages, dtype=np.int64)
    for b in bindings:
        lo, hi = _chunk_bounds(spec.size_bytes, b.thread_id, n_threads, element_bytes)
        first = lo // page_bytes
        last = (hi - 1) // page_bytes if hi > lo else first
        nodes[first : last + 1] = b.node
    return ExplicitPlacement(nodes)


def compile_workload(
    workload: Workload,
    topology: NumaTopology,
    bindings: list[ThreadBinding],
) -> CompiledWorkload:
    """Allocate the workload's objects and emit engine thread programs."""
    if not bindings:
        raise WorkloadError("need at least one thread binding")

    page_table = PageTable(n_nodes=topology.n_sockets)
    allocator = HeapAllocator(page_table, VirtualAddressSpace())
    numa = LibNuma(page_table=page_table, allocator=allocator)

    # Element size used for chunk alignment of colocated objects: take the
    # smallest element size any stream uses on that object (conservative).
    elem_for_object: dict[str, int] = {}
    for phase in workload.phases:
        for s in phase.streams:
            cur = elem_for_object.get(s.object_name, 64)
            elem_for_object[s.object_name] = min(cur, s.element_bytes)

    objects: dict[str, DataObject] = {}
    for spec in workload.objects:
        if spec.colocate:
            policy: PagePlacementPolicy = _colocation_placement(
                spec, bindings, page_table.page_bytes, elem_for_object.get(spec.name, 8)
            )
        else:
            policy = spec.policy if spec.policy is not None else FirstTouch(0)
        objects[spec.name] = allocator.malloc(
            spec.size_bytes,
            site=spec.site,
            name=spec.name,
            policy=policy,
            huge_pages=spec.huge_pages,
            is_heap=spec.is_heap,
        )

    n_threads = len(bindings)
    programs: list[ThreadProgram] = []
    for b in sorted(bindings, key=lambda x: x.thread_id):
        phases: list[EnginePhase] = []
        for phase in workload.phases:
            streams: list[EngineStream] = []
            for s in phase.streams:
                obj = objects[s.object_name]
                if s.share is Share.CHUNK and not phase.single_thread:
                    lo, hi = _chunk_bounds(
                        obj.size_bytes, b.thread_id, n_threads, s.element_bytes
                    )
                    region_base, region_bytes = obj.base + lo, hi - lo
                else:
                    # Shared access — or a serial phase, where the master
                    # touches the whole object (e.g. initialization).
                    region_base, region_bytes = obj.base, obj.size_bytes
                if region_bytes <= 0:
                    raise WorkloadError(
                        f"thread {b.thread_id} got an empty chunk of {s.object_name!r}"
                    )
                node_fractions = page_table.node_fractions(
                    region_base, region_bytes, accessor_node=b.node
                )
                profile = StreamProfile(
                    kind=s.pattern,
                    working_set_bytes=region_bytes,
                    element_bytes=s.element_bytes,
                    stride_bytes=s.stride_bytes,
                    passes=s.passes,
                    write_fraction=s.write_fraction,
                    chains=s.chains,
                )
                streams.append(
                    EngineStream(
                        object_id=obj.object_id,
                        region_base=region_base,
                        region_bytes=region_bytes,
                        profile=profile,
                        weight=s.weight,
                        node_fractions=node_fractions,
                        shared=s.share is Share.ALL,
                    )
                )
            phases.append(
                EnginePhase(
                    name=phase.name,
                    n_accesses=phase.thread_accesses(n_threads, b.thread_id),
                    compute_cycles_per_access=phase.compute_cycles_per_access,
                    streams=tuple(streams),
                )
            )
        programs.append(ThreadProgram(thread_id=b.thread_id, cpu=b.cpu, phases=tuple(phases)))

    return CompiledWorkload(
        workload=workload,
        programs=programs,
        bindings=list(bindings),
        page_table=page_table,
        allocator=allocator,
        libnuma=numa,
        objects=objects,
    )
