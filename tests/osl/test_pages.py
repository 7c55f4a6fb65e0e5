"""Tests for page tables and NUMA placement policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, InvalidAddressError, TopologyError
from repro.osl.pages import (
    HUGE_PAGE_BYTES,
    PAGE_BYTES,
    BindToNode,
    ExplicitPlacement,
    FirstTouch,
    Interleave,
    PageTable,
    Replicated,
    VirtualAddressSpace,
)


class TestPolicies:
    def test_first_touch(self):
        nodes = FirstTouch(2).place(10, 4)
        assert np.all(nodes == 2)

    def test_first_touch_bad_node(self):
        with pytest.raises(TopologyError):
            FirstTouch(4).place(1, 4)

    def test_bind(self):
        assert np.all(BindToNode(3).place(5, 4) == 3)

    def test_interleave_round_robin(self):
        nodes = Interleave().place(8, 4)
        assert list(nodes) == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_interleave_subset(self):
        nodes = Interleave(nodes=(1, 3)).place(4, 4)
        assert list(nodes) == [1, 3, 1, 3]

    def test_interleave_bad_node(self):
        with pytest.raises(TopologyError):
            Interleave(nodes=(5,)).place(1, 4)

    def test_explicit(self):
        nodes = ExplicitPlacement((0, 2, 1)).place(3, 4)
        assert list(nodes) == [0, 2, 1]

    def test_explicit_from_array(self):
        nodes = ExplicitPlacement(np.array([3, 0, 1], dtype=np.int64)).place(3, 4)
        assert nodes.dtype == np.int64
        assert list(nodes) == [3, 0, 1]

    def test_explicit_copies_its_source(self):
        source = np.array([0, 2, 1], dtype=np.int64)
        policy = ExplicitPlacement(source)
        source[:] = 3
        assert list(policy.place(3, 4)) == [0, 2, 1]
        placed = policy.place(3, 4)
        placed[:] = 3  # the page table owns what place() returns
        assert list(policy.place(3, 4)) == [0, 2, 1]

    def test_explicit_nodes_are_read_only(self):
        policy = ExplicitPlacement((0, 2, 1))
        with pytest.raises(ValueError):
            policy.nodes[0] = 3

    def test_explicit_wrong_length(self):
        with pytest.raises(AllocationError):
            ExplicitPlacement((0,)).place(3, 4)

    def test_replicated_home_is_node0(self):
        assert np.all(Replicated().place(4, 4) == 0)


class TestVirtualAddressSpace:
    def test_alignment(self):
        space = VirtualAddressSpace()
        a = space.reserve(100, align=PAGE_BYTES)
        assert a % PAGE_BYTES == 0
        b = space.reserve(100, align=HUGE_PAGE_BYTES)
        assert b % HUGE_PAGE_BYTES == 0

    def test_no_overlap(self):
        space = VirtualAddressSpace()
        a = space.reserve(10_000)
        b = space.reserve(10_000)
        assert b >= a + 10_000

    def test_bad_size(self):
        with pytest.raises(AllocationError):
            VirtualAddressSpace().reserve(0)

    def test_bad_alignment(self):
        with pytest.raises(AllocationError):
            VirtualAddressSpace().reserve(100, align=100)


class TestPageTable:
    def setup_method(self):
        self.pt = PageTable(n_nodes=4)

    def test_map_and_lookup(self):
        self.pt.map_range(0x10000, 8 * PAGE_BYTES, Interleave())
        assert self.pt.node_of_address(0x10000) == 0
        assert self.pt.node_of_address(0x10000 + PAGE_BYTES) == 1
        assert self.pt.node_of_address(0x10000 + 5 * PAGE_BYTES) == 1

    def test_unmapped_address(self):
        with pytest.raises(InvalidAddressError):
            self.pt.node_of_address(0x999999)
        assert not self.pt.is_mapped(0x999999)

    def test_overlap_rejected(self):
        self.pt.map_range(0x10000, 2 * PAGE_BYTES, BindToNode(0))
        with pytest.raises(AllocationError):
            self.pt.map_range(0x10000 + PAGE_BYTES, PAGE_BYTES, BindToNode(0))
        with pytest.raises(AllocationError):
            self.pt.map_range(0x10000 - PAGE_BYTES, 2 * PAGE_BYTES, BindToNode(0))

    def test_unaligned_base_rejected(self):
        with pytest.raises(AllocationError):
            self.pt.map_range(123, PAGE_BYTES, BindToNode(0))

    def test_unmap(self):
        self.pt.map_range(0x10000, PAGE_BYTES, BindToNode(1))
        self.pt.unmap_range(0x10000)
        assert not self.pt.is_mapped(0x10000)
        with pytest.raises(InvalidAddressError):
            self.pt.unmap_range(0x10000)

    def test_remap_changes_placement(self):
        self.pt.map_range(0x10000, 4 * PAGE_BYTES, BindToNode(0))
        self.pt.remap_range(0x10000, BindToNode(3))
        assert self.pt.node_of_address(0x10000) == 3

    def test_node_fractions_interleaved(self):
        self.pt.map_range(0x10000, 8 * PAGE_BYTES, Interleave())
        frac = self.pt.node_fractions(0x10000, 8 * PAGE_BYTES)
        assert frac == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_node_fractions_partial_range(self):
        self.pt.map_range(0x10000, 8 * PAGE_BYTES, Interleave())
        frac = self.pt.node_fractions(0x10000, 2 * PAGE_BYTES)
        assert frac == pytest.approx([0.5, 0.5, 0.0, 0.0])

    def test_node_fractions_out_of_mapping(self):
        self.pt.map_range(0x10000, 2 * PAGE_BYTES, BindToNode(0))
        with pytest.raises(InvalidAddressError):
            self.pt.node_fractions(0x10000, 4 * PAGE_BYTES)

    def test_replicated_resolution(self):
        self.pt.map_range(0x10000, 4 * PAGE_BYTES, Replicated())
        assert self.pt.is_replicated(0x10000)
        assert self.pt.node_of_address(0x10000, accessor_node=2) == 2
        assert self.pt.node_of_address(0x10000) == 0  # home copy
        frac = self.pt.node_fractions(0x10000, PAGE_BYTES, accessor_node=3)
        assert frac[3] == 1.0

    def test_pages_on_node(self):
        self.pt.map_range(0x10000, 8 * PAGE_BYTES, Interleave())
        pages = self.pt.pages_on_node(0x10000, 8 * PAGE_BYTES, 1)
        assert list(pages) == [1, 5]

    def test_pages_on_node_is_memoized_and_read_only(self):
        self.pt.map_range(0x10000, 8 * PAGE_BYTES, Interleave())
        pages = self.pt.pages_on_node(0x10000, 8 * PAGE_BYTES, 1)
        assert self.pt.pages_on_node(0x10000, 8 * PAGE_BYTES, 1) is pages
        assert self.pt.pages_on_node(0x10000, 4 * PAGE_BYTES, 1) is not pages
        with pytest.raises(ValueError):
            pages[0] = 3

    def test_remap_invalidates_pages_on_node(self):
        self.pt.map_range(0x10000, 8 * PAGE_BYTES, Interleave())
        assert list(self.pt.pages_on_node(0x10000, 8 * PAGE_BYTES, 1)) == [1, 5]
        self.pt.remap_range(0x10000, BindToNode(1))
        assert list(self.pt.pages_on_node(0x10000, 8 * PAGE_BYTES, 1)) == list(range(8))
        assert self.pt.pages_on_node(0x10000, 8 * PAGE_BYTES, 0).size == 0

    def test_unmap_invalidates_pages_on_node(self):
        self.pt.map_range(0x10000, 8 * PAGE_BYTES, Interleave())
        self.pt.pages_on_node(0x10000, 8 * PAGE_BYTES, 1)
        self.pt.unmap_range(0x10000)
        with pytest.raises(InvalidAddressError):
            self.pt.pages_on_node(0x10000, 8 * PAGE_BYTES, 1)
        # A new mapping at the same base answers for its own pages.
        self.pt.map_range(0x10000, 8 * PAGE_BYTES, BindToNode(2))
        assert list(self.pt.pages_on_node(0x10000, 8 * PAGE_BYTES, 2)) == list(range(8))
        assert self.pt.pages_on_node(0x10000, 8 * PAGE_BYTES, 1).size == 0

    def test_vectorized_matches_scalar(self):
        self.pt.map_range(0x10000, 16 * PAGE_BYTES, Interleave())
        addrs = np.array([0x10000 + i * 1000 for i in range(50)], dtype=np.int64)
        vec = self.pt.nodes_of_addresses(addrs)
        scalar = [self.pt.node_of_address(int(a)) for a in addrs]
        assert list(vec) == scalar

    def test_vectorized_unmapped_raises(self):
        self.pt.map_range(0x10000, PAGE_BYTES, BindToNode(0))
        with pytest.raises(InvalidAddressError):
            self.pt.nodes_of_addresses(np.array([0x10000, 0x999999]))

    def test_n_ranges(self):
        assert self.pt.n_ranges == 0
        self.pt.map_range(0x10000, PAGE_BYTES, BindToNode(0))
        assert self.pt.n_ranges == 1


@given(
    ranges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),  # base page
            st.integers(min_value=1, max_value=16),  # pages
            st.integers(min_value=0, max_value=3),  # node
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_property_page_table_consistency(ranges):
    """Non-overlapping mappings always resolve to the node they were
    placed on; overlapping ones are rejected atomically."""
    pt = PageTable(n_nodes=4)
    accepted: list[tuple[int, int, int]] = []
    for base_page, n_pages, node in ranges:
        base = base_page * PAGE_BYTES
        size = n_pages * PAGE_BYTES
        overlaps = any(
            base < b + s and b < base + size for b, s, _ in accepted
        )
        if overlaps:
            with pytest.raises(AllocationError):
                pt.map_range(base, size, BindToNode(node))
        else:
            pt.map_range(base, size, BindToNode(node))
            accepted.append((base, size, node))
    for base, size, node in accepted:
        assert pt.node_of_address(base) == node
        assert pt.node_of_address(base + size - 1) == node
