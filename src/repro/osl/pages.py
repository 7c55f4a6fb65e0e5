"""Virtual memory pages and NUMA placement policies.

The placement of physical pages across NUMA nodes is the mechanism behind
every effect DR-BW studies: a page on node ``n`` turns accesses from other
nodes into remote traffic over the ``src → n`` channel.  This module
implements the Linux policies the paper manipulates:

* **first-touch** (the default): a page lands on the node of the thread
  that first touches it — which is why master-thread initialization puts
  whole arrays on node 0 and creates contention;
* **bind**: all pages on one chosen node (``numa_alloc_onnode``);
* **interleave**: pages round-robin across a node set
  (``numa_alloc_interleaved``) — the paper's coarse-grained remedy and its
  ground-truth oracle;
* **replicated**: a per-node read-only copy (the Streamcluster remedy);
  every access is served locally.

Pages are 4 KiB by default; *huge pages* (2 MiB) give the deterministic
page-offset → cache-set mapping the bandit micro-benchmark exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AllocationError, InvalidAddressError, TopologyError

__all__ = [
    "PAGE_BYTES",
    "HUGE_PAGE_BYTES",
    "PagePlacementPolicy",
    "FirstTouch",
    "BindToNode",
    "Interleave",
    "ExplicitPlacement",
    "Replicated",
    "PageTable",
    "VirtualAddressSpace",
]

PAGE_BYTES = 4 * 1024
HUGE_PAGE_BYTES = 2 * 1024 * 1024


class PagePlacementPolicy:
    """Base class for page placement policies."""

    def place(self, n_pages: int, n_nodes: int) -> np.ndarray:
        """Return the node of each of ``n_pages`` pages."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class FirstTouch(PagePlacementPolicy):
    """All pages land on the node of the (single) first-touching thread.

    Real first-touch is per page; in the workloads we model, one thread
    (usually the master, node 0) initializes the whole object, so the
    object-granular approximation is exact for the paper's scenarios.
    Parallel first-touch initialization is expressed by giving each
    thread's chunk its own ``FirstTouch(node)`` — see the co-locate
    optimization.
    """

    toucher_node: int = 0

    def place(self, n_pages: int, n_nodes: int) -> np.ndarray:
        if not 0 <= self.toucher_node < n_nodes:
            raise TopologyError(f"first-touch node {self.toucher_node} out of range")
        return np.full(n_pages, self.toucher_node, dtype=np.int64)


@dataclass(frozen=True, slots=True)
class BindToNode(PagePlacementPolicy):
    """Every page bound to one explicit node."""

    node: int

    def place(self, n_pages: int, n_nodes: int) -> np.ndarray:
        if not 0 <= self.node < n_nodes:
            raise TopologyError(f"bind node {self.node} out of range")
        return np.full(n_pages, self.node, dtype=np.int64)


@dataclass(frozen=True)
class Interleave(PagePlacementPolicy):
    """Pages round-robin over ``nodes`` (all nodes when empty)."""

    nodes: tuple[int, ...] = ()

    def place(self, n_pages: int, n_nodes: int) -> np.ndarray:
        nodes = self.nodes or tuple(range(n_nodes))
        for n in nodes:
            if not 0 <= n < n_nodes:
                raise TopologyError(f"interleave node {n} out of range")
        order = np.array(nodes, dtype=np.int64)
        return order[np.arange(n_pages) % len(order)]


@dataclass(frozen=True, eq=False)
class ExplicitPlacement(PagePlacementPolicy):
    """An explicit per-page node assignment.

    This is how the co-locate optimization is expressed: the compiler
    computes, for every page of an object, the node of the thread whose
    chunk contains it, and places the page there.  ``nodes`` may be any
    sequence or array of node ids; the policy keeps a read-only int64
    copy, so later changes to the source never move its pages.
    """

    nodes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.nodes, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "nodes", arr)

    def place(self, n_pages: int, n_nodes: int) -> np.ndarray:
        if len(self.nodes) != n_pages:
            raise AllocationError(
                f"explicit placement covers {len(self.nodes)} pages, need {n_pages}"
            )
        if self.nodes.size and (self.nodes.min() < 0 or self.nodes.max() >= n_nodes):
            raise TopologyError("explicit placement references a missing node")
        return self.nodes.copy()


@dataclass(frozen=True, slots=True)
class Replicated(PagePlacementPolicy):
    """One read-only replica per node; accesses are always node-local.

    The page table stores the 'home' copy on node 0; consumers must check
    :meth:`PageTable.is_replicated` before using per-page nodes.
    """

    def place(self, n_pages: int, n_nodes: int) -> np.ndarray:
        return np.zeros(n_pages, dtype=np.int64)


class VirtualAddressSpace:
    """Bump allocator for virtual address ranges.

    Returns page-aligned (or huge-page-aligned) base addresses; never
    reuses a range, which keeps sample attribution unambiguous even after
    frees — matching how DR-BW's allocation table behaves in practice for
    long-lived arrays.
    """

    def __init__(self, base: int = 0x1000_0000) -> None:
        if base <= 0:
            raise AllocationError("address-space base must be positive")
        self._next = base

    def reserve(self, size_bytes: int, align: int = PAGE_BYTES) -> int:
        """Reserve ``size_bytes`` and return the aligned base address."""
        if size_bytes <= 0:
            raise AllocationError(f"cannot reserve {size_bytes} bytes")
        if align <= 0 or (align & (align - 1)) != 0:
            raise AllocationError(f"alignment must be a power of two: {align}")
        base = (self._next + align - 1) & ~(align - 1)
        self._next = base + size_bytes
        return base


class PageTable:
    """Maps virtual page ranges to NUMA nodes.

    Ranges never overlap; lookups are binary searches over sorted range
    bases, so ``node_of_address`` is O(log ranges) — the same cost profile
    as libnuma's ``move_pages``-based lookup that DR-BW calls per sample.
    """

    def __init__(self, n_nodes: int, page_bytes: int = PAGE_BYTES) -> None:
        if n_nodes < 1:
            raise TopologyError("need at least one node")
        if page_bytes <= 0 or (page_bytes & (page_bytes - 1)) != 0:
            raise AllocationError(f"page size must be a power of two: {page_bytes}")
        self.n_nodes = n_nodes
        self.page_bytes = page_bytes
        self._bases: list[int] = []       # sorted range base addresses
        self._sizes: list[int] = []
        self._nodes: list[np.ndarray] = []  # per-range page->node arrays
        self._replicated: list[bool] = []
        # pages_on_node answers by (base, size_bytes, node); every mapping
        # change clears it.
        self._pages_on_node: dict[tuple[int, int, int], np.ndarray] = {}

    # -- mapping ------------------------------------------------------------

    def n_pages(self, size_bytes: int) -> int:
        """Pages needed to back ``size_bytes``."""
        return -(-size_bytes // self.page_bytes)

    def map_range(
        self,
        base: int,
        size_bytes: int,
        policy: PagePlacementPolicy,
    ) -> np.ndarray:
        """Back ``[base, base+size)`` with pages placed by ``policy``."""
        if base < 0 or size_bytes <= 0:
            raise AllocationError(f"bad range base={base} size={size_bytes}")
        if base % self.page_bytes != 0:
            raise AllocationError(f"base {base:#x} not page-aligned")
        idx = self._find_slot(base, size_bytes)
        nodes = policy.place(self.n_pages(size_bytes), self.n_nodes)
        self._pages_on_node.clear()
        self._bases.insert(idx, base)
        self._sizes.insert(idx, size_bytes)
        self._nodes.insert(idx, nodes)
        self._replicated.insert(idx, isinstance(policy, Replicated))
        return nodes

    def unmap_range(self, base: int) -> None:
        """Remove the range starting exactly at ``base``."""
        i = self._range_index_of_base(base)
        self._pages_on_node.clear()
        del self._bases[i], self._sizes[i], self._nodes[i], self._replicated[i]

    def remap_range(self, base: int, policy: PagePlacementPolicy) -> np.ndarray:
        """Re-place an existing range under a new policy (page migration)."""
        i = self._range_index_of_base(base)
        nodes = policy.place(self.n_pages(self._sizes[i]), self.n_nodes)
        self._pages_on_node.clear()
        self._nodes[i] = nodes
        self._replicated[i] = isinstance(policy, Replicated)
        return nodes

    def _find_slot(self, base: int, size_bytes: int) -> int:
        import bisect

        idx = bisect.bisect_left(self._bases, base)
        if idx > 0 and self._bases[idx - 1] + self._sizes[idx - 1] > base:
            raise AllocationError(f"range at {base:#x} overlaps an existing mapping")
        if idx < len(self._bases) and base + size_bytes > self._bases[idx]:
            raise AllocationError(f"range at {base:#x} overlaps an existing mapping")
        return idx

    def _range_index_of_base(self, base: int) -> int:
        import bisect

        idx = bisect.bisect_left(self._bases, base)
        if idx == len(self._bases) or self._bases[idx] != base:
            raise InvalidAddressError(f"no mapped range starts at {base:#x}")
        return idx

    def _range_index_of_addr(self, addr: int) -> int:
        import bisect

        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx < 0 or addr >= self._bases[idx] + self._sizes[idx]:
            raise InvalidAddressError(f"address {addr:#x} is not mapped")
        return idx

    # -- queries ------------------------------------------------------------

    def node_of_address(self, addr: int, accessor_node: int | None = None) -> int:
        """Node whose DRAM holds ``addr`` (libnuma ``numa_node_of_address``).

        For replicated ranges the nearest replica is the accessor's own node
        when given, else the home copy.
        """
        i = self._range_index_of_addr(addr)
        if self._replicated[i] and accessor_node is not None:
            if not 0 <= accessor_node < self.n_nodes:
                raise TopologyError(f"accessor node {accessor_node} out of range")
            return accessor_node
        page = (addr - self._bases[i]) // self.page_bytes
        return int(self._nodes[i][page])

    def is_mapped(self, addr: int) -> bool:
        """True when ``addr`` falls in a mapped range."""
        try:
            self._range_index_of_addr(addr)
            return True
        except InvalidAddressError:
            return False

    def is_replicated(self, addr: int) -> bool:
        """True when ``addr`` lies in a replicated range."""
        return self._replicated[self._range_index_of_addr(addr)]

    def node_fractions(self, base: int, size_bytes: int, accessor_node: int | None = None) -> np.ndarray:
        """Distribution over nodes of the pages backing ``[base, base+size)``.

        This is what turns page placement into the engine's per-stream
        ``node_fractions``.  For replicated ranges with a known accessor the
        mass is entirely on the accessor's node.
        """
        if size_bytes <= 0:
            raise AllocationError("size must be positive")
        i = self._range_index_of_addr(base)
        end = base + size_bytes - 1
        if end >= self._bases[i] + self._sizes[i]:
            raise InvalidAddressError(
                f"range [{base:#x}, {end:#x}] spills out of its mapping"
            )
        if self._replicated[i] and accessor_node is not None:
            out = np.zeros(self.n_nodes)
            out[accessor_node] = 1.0
            return out
        first = (base - self._bases[i]) // self.page_bytes
        last = (end - self._bases[i]) // self.page_bytes
        counts = np.bincount(self._nodes[i][first : last + 1], minlength=self.n_nodes)
        return counts / counts.sum()

    def nodes_of_addresses(
        self,
        addrs: np.ndarray,
        accessor_nodes: np.ndarray | None = None,
        on_unmapped: str = "raise",
    ) -> np.ndarray:
        """Vectorized :meth:`node_of_address` over an address array.

        ``accessor_nodes`` (same shape) resolves replicated ranges to the
        accessor's local replica, as in the scalar lookup.

        ``on_unmapped`` selects the failure behavior: ``"raise"`` (the
        default) raises :class:`InvalidAddressError` on the first unmapped
        address, while ``"ignore"`` reports ``-1`` for unmapped entries —
        the mode the fault-tolerant profiler uses to quarantine corrupted
        samples instead of aborting the whole attribution pass.
        """
        if on_unmapped not in ("raise", "ignore"):
            raise ValueError(f"on_unmapped must be 'raise' or 'ignore', got {on_unmapped!r}")
        addrs = np.asarray(addrs, dtype=np.int64)
        out = np.empty(addrs.shape[0], dtype=np.int64)
        bases = np.asarray(self._bases, dtype=np.int64)
        sizes = np.asarray(self._sizes, dtype=np.int64)
        if bases.size == 0:
            if addrs.size and on_unmapped == "raise":
                raise InvalidAddressError("no ranges mapped")
            out.fill(-1)
            return out
        idx = np.searchsorted(bases, addrs, side="right") - 1
        bad = (idx < 0) | (addrs >= bases[np.maximum(idx, 0)] + sizes[np.maximum(idx, 0)])
        if np.any(bad):
            if on_unmapped == "raise":
                raise InvalidAddressError(
                    f"{int(bad.sum())} addresses are not mapped (first: "
                    f"{int(addrs[bad][0]):#x})"
                )
            out[bad] = -1
            work_idx = np.where(bad, -1, idx)
        else:
            work_idx = idx
        # Group addresses by owning range with one stable sort instead of a
        # full-array mask per range: O(n log n) regardless of range count.
        if work_idx.size == 0:
            return out
        order = np.argsort(work_idx, kind="stable")
        sidx = work_idx[order]
        starts = np.flatnonzero(np.r_[True, sidx[1:] != sidx[:-1]])
        ends = np.r_[starts[1:], sidx.size]
        for s, e in zip(starts.tolist(), ends.tolist()):
            r = int(sidx[s])
            if r < 0:  # unmapped (already -1)
                continue
            sel = order[s:e]
            if self._replicated[r] and accessor_nodes is not None:
                out[sel] = accessor_nodes[sel]
                continue
            pages = (addrs[sel] - bases[r]) // self.page_bytes
            out[sel] = self._nodes[r][pages]
        return out

    def pages_on_node(self, base: int, size_bytes: int, node: int) -> np.ndarray:
        """Page indices (relative to ``base``) that live on ``node``.

        Memoized until the next map, unmap or remap: samplers of every
        run that shares this table ask for the same windows, and the
        scan over a large window is the expensive part.  The returned
        array is shared, so it is read-only.
        """
        key = (base, size_bytes, node)
        pages = self._pages_on_node.get(key)
        if pages is None:
            i = self._range_index_of_addr(base)
            first = (base - self._bases[i]) // self.page_bytes
            last = (base + size_bytes - 1 - self._bases[i]) // self.page_bytes
            pages = np.nonzero(self._nodes[i][first : last + 1] == node)[0]
            pages.setflags(write=False)
            self._pages_on_node[key] = pages
        return pages

    @property
    def n_ranges(self) -> int:
        """Number of currently mapped ranges."""
        return len(self._bases)
