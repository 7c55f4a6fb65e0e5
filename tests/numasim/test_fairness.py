"""Tests for the max-min fair bandwidth allocator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.numasim.fairness import (
    FairnessProblem,
    FlowGroups,
    build_membership,
    solve_max_min,
    water_fill,
)


def solve(demands, usage, capacities):
    return solve_max_min(
        FairnessProblem(
            demands=np.array(demands, dtype=float),
            usage=usage,
            capacities=np.array(capacities, dtype=float),
        )
    )


class TestBasicAllocations:
    def test_unconstrained_gets_demand(self):
        sol = solve([3.0, 2.0], [(0,), (0,)], [10.0])
        assert sol.allocations == pytest.approx([3.0, 2.0])
        assert sol.utilization[0] == pytest.approx(0.5)

    def test_equal_split_on_saturated_resource(self):
        sol = solve([10.0, 10.0], [(0,), (0,)], [10.0])
        assert sol.allocations == pytest.approx([5.0, 5.0])
        assert sol.utilization[0] == pytest.approx(1.0)

    def test_small_demand_satisfied_first(self):
        """Classic max-min: the 2-unit flow gets 2; the rest split 8."""
        sol = solve([2.0, 100.0, 100.0], [(0,), (0,), (0,)], [10.0])
        assert sol.allocations == pytest.approx([2.0, 4.0, 4.0])

    def test_multi_resource_bottleneck(self):
        # Flow 0 crosses both; resource 1 is the tighter one.
        sol = solve([10.0, 10.0], [(0, 1), (0,)], [10.0, 4.0])
        assert sol.allocations[0] == pytest.approx(4.0)
        assert sol.allocations[1] == pytest.approx(6.0)

    def test_disjoint_resources_independent(self):
        sol = solve([8.0, 8.0], [(0,), (1,)], [4.0, 100.0])
        assert sol.allocations == pytest.approx([4.0, 8.0])

    def test_zero_demand_flow(self):
        sol = solve([0.0, 5.0], [(0,), (0,)], [4.0])
        assert sol.allocations[0] == 0.0
        assert sol.allocations[1] == pytest.approx(4.0)

    def test_no_resources(self):
        sol = solve([7.0], [()], np.empty(0))
        assert sol.allocations == pytest.approx([7.0])

    def test_no_flows(self):
        sol = solve([], [], [5.0])
        assert sol.allocations.size == 0
        assert sol.utilization[0] == 0.0


class TestThrottle:
    def test_throttle_ratio(self):
        sol = solve([10.0, 10.0], [(0,), (0,)], [10.0])
        thr = sol.throttle(np.array([10.0, 10.0]))
        assert thr == pytest.approx([0.5, 0.5])

    def test_zero_demand_throttle_is_one(self):
        sol = solve([0.0], [(0,)], [10.0])
        assert sol.throttle(np.array([0.0]))[0] == 1.0


class TestValidation:
    def test_negative_demand(self):
        with pytest.raises(SimulationError):
            solve([-1.0], [(0,)], [1.0])

    def test_bad_capacity(self):
        with pytest.raises(SimulationError):
            solve([1.0], [(0,)], [0.0])

    def test_unknown_resource(self):
        with pytest.raises(SimulationError):
            solve([1.0], [(3,)], [1.0])

    def test_usage_length_mismatch(self):
        with pytest.raises(SimulationError):
            solve([1.0, 2.0], [(0,)], [1.0])


@st.composite
def fairness_problems(draw):
    n_res = draw(st.integers(min_value=1, max_value=5))
    n_flows = draw(st.integers(min_value=1, max_value=12))
    demands = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=n_flows, max_size=n_flows,
        )
    )
    capacities = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=50.0),
            min_size=n_res, max_size=n_res,
        )
    )
    usage = [
        tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_res - 1),
                    max_size=n_res, unique=True,
                )
            )
        )
        for _ in range(n_flows)
    ]
    return demands, usage, capacities


@given(fairness_problems())
@settings(max_examples=200, deadline=None)
def test_property_max_min_invariants(problem):
    """No over-capacity, no over-demand, and Pareto optimality."""
    demands, usage, capacities = problem
    sol = solve(demands, usage, capacities)
    alloc = sol.allocations
    d = np.array(demands)
    caps = np.array(capacities)

    # 1. Allocation within demand.
    assert np.all(alloc <= d + 1e-6)
    assert np.all(alloc >= -1e-12)

    # 2. No resource over capacity.
    used = np.zeros(len(capacities))
    for f, res in enumerate(usage):
        for r in res:
            used[r] += alloc[f]
    assert np.all(used <= caps * (1 + 1e-6))

    # 3. Pareto: every unsatisfied flow crosses a saturated resource.
    for f, res in enumerate(usage):
        if alloc[f] < d[f] - 1e-6 * max(d[f], 1.0):
            assert res, "unsatisfied flow must cross some resource"
            assert any(used[r] >= caps[r] * (1 - 1e-6) for r in res)

    # 4. Utilization consistent and bounded.
    assert np.all(sol.utilization <= 1.0 + 1e-9)
    assert np.all(sol.utilization >= 0.0)


@given(fairness_problems())
@settings(max_examples=100, deadline=None)
def test_property_bottleneck_fairness(problem):
    """On a saturated resource, an unsatisfied flow's allocation is within
    rounding of the max allocation among that resource's flows (max-min)."""
    demands, usage, capacities = problem
    sol = solve(demands, usage, capacities)
    alloc = sol.allocations
    d = np.array(demands)
    caps = np.array(capacities)
    used = np.zeros(len(capacities))
    for f, res in enumerate(usage):
        for r in res:
            used[r] += alloc[f]
    for r in range(len(capacities)):
        flows = [f for f, res in enumerate(usage) if r in res and d[f] > 1e-9]
        if not flows or used[r] < caps[r] * (1 - 1e-6):
            continue
        unsat = [f for f in flows if alloc[f] < d[f] - 1e-6 * max(d[f], 1.0)]
        if not unsat:
            continue
        # Fairness: an unsatisfied flow on the bottleneck cannot be starved
        # below another flow on the same bottleneck (modulo its own demand
        # and other resources it crosses).
        floor = min(alloc[f] for f in unsat)
        for f in flows:
            if alloc[f] > floor + 1e-6:
                # The bigger flow must be demand-limited or limited here.
                assert (
                    alloc[f] <= d[f] + 1e-6
                ), "allocation above demand is never fair"


# ---------------------------------------------------------------------------
# Differential oracle: the grouped kernel against the per-flow fill
# ---------------------------------------------------------------------------

_EPS = 1e-12


def per_flow_water_fill(demands, member, capacities):
    """The per-flow progressive fill the grouped kernel replaced, kept
    verbatim as its oracle: one numpy round per event over every flow."""
    n_flows = demands.shape[0]
    n_res = capacities.shape[0]

    if n_res == 0 or n_flows == 0:
        return demands.copy(), np.zeros(n_res, dtype=np.float64)

    alloc = np.zeros(n_flows, dtype=np.float64)
    active = demands > _EPS
    residual = capacities.copy()

    for _ in range(n_flows + n_res + 1):
        if not np.any(active):
            break
        active_f = active.astype(np.float64)
        counts = member @ active_f  # active flows per resource
        with np.errstate(divide="ignore", invalid="ignore"):
            headroom = np.where(counts > 0, residual / np.maximum(counts, 1.0), np.inf)
        remaining = np.where(active, demands - alloc, np.inf)
        delta = min(float(np.min(headroom)), float(np.min(remaining)))
        if not np.isfinite(delta):  # pragma: no cover - defensive
            raise SimulationError("water-filling produced non-finite increment")
        delta = max(delta, 0.0)

        alloc[active] += delta
        residual -= delta * counts
        residual = np.maximum(residual, 0.0)

        # Freeze satisfied flows and flows crossing a saturated resource.
        satisfied = active & (demands - alloc <= _EPS * np.maximum(demands, 1.0) + _EPS)
        saturated_res = residual <= _EPS * np.maximum(capacities, 1.0)
        blocked = active & (member[saturated_res].sum(axis=0) > 0)
        newly_frozen = satisfied | blocked
        if not np.any(newly_frozen):  # pragma: no cover - defensive
            raise SimulationError("water-filling failed to make progress")
        active &= ~newly_frozen
    else:  # pragma: no cover - defensive
        raise SimulationError("water-filling exceeded its round budget")

    used = member @ alloc
    utilization = np.minimum(used / capacities, 1.0)
    return alloc, utilization


@st.composite
def grouped_problems(draw):
    """Flow groups with multiplicities, expanded to a shuffled flow list.

    Demands come from a small pool (duplicates across groups, zero and
    sub-epsilon demands, demands within the satisfied tolerance of each
    other), groups cross zero to two resources, and
    capacities range from far above the total demand to far below it, so
    resources saturate at every point of the fill.
    """
    n_res = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.lists(
        st.one_of(
            st.just(0.0), st.just(1e-13),
            st.floats(min_value=1e-3, max_value=100.0),
            # demands within the "reached its demand" tolerance of each other
            st.sampled_from([1.0, 1.0 + 1e-12, 1.0 + 4e-12, 7.5, 7.5 + 2e-11, 7.5 + 8e-11]),
        ),
        min_size=1, max_size=4,
    ))
    n_groups = draw(st.integers(min_value=1, max_value=8))
    demands, usage, mult = [], [], []
    for _ in range(n_groups):
        demands.append(draw(st.sampled_from(pool)))
        usage.append(tuple(draw(st.lists(
            st.integers(min_value=0, max_value=n_res - 1),
            max_size=2, unique=True,
        ))))
        mult.append(draw(st.integers(min_value=1, max_value=5)))
    capacities = draw(st.lists(
        st.floats(min_value=0.05, max_value=400.0),
        min_size=n_res, max_size=n_res,
    ))
    flow_group = [g for g in range(n_groups) for _ in range(mult[g])]
    flow_group = draw(st.permutations(flow_group))
    return demands, usage, mult, flow_group, capacities


def _grouped_vs_oracle(demands, usage, mult, flow_group, capacities):
    d = np.array(demands, dtype=np.float64)
    caps = np.array(capacities, dtype=np.float64)
    fg = np.array(flow_group, dtype=np.int64)
    flow_usage = [usage[g] for g in flow_group]
    flow_member = build_membership(flow_usage, caps.shape[0])
    want_alloc, want_util = per_flow_water_fill(d[fg], flow_member, caps)

    groups = FlowGroups(usage=usage, flow_group=fg, n_res=caps.shape[0])
    assert groups.multiplicity == mult
    assert groups.flow_member.tobytes() == flow_member.tobytes()
    assert groups.flow_member.flags.c_contiguous
    sol = water_fill(d, groups, caps)
    assert sol.allocations[fg].tobytes() == want_alloc.tobytes()
    assert sol.utilization.tobytes() == want_util.tobytes()

    flat = solve_max_min(FairnessProblem(d[fg], flow_usage, caps))
    assert flat.allocations.tobytes() == want_alloc.tobytes()
    assert flat.utilization.tobytes() == want_util.tobytes()


@given(grouped_problems())
@settings(max_examples=300, deadline=None)
@example(  # identical demands on one resource that saturates mid-fill
    ([2.0, 9.0, 9.0], [(0,), (0, 1), (0,)], [3, 2, 1], [0, 1, 2, 1, 0, 0], [20.0, 50.0])
)
@example(  # a zero and a sub-epsilon demand beside live flows
    ([0.0, 1e-13, 5.0], [(0,), (0, 1), (1,)], [2, 1, 3], [2, 0, 1, 2, 0, 2], [4.0, 6.0])
)
@example(  # demands 1e-12 apart: one fill round satisfies both
    ([1.0, 1.0 + 1e-12, 1.0 + 4e-12], [(0,), (0,), (1,)], [1, 2, 1], [0, 1, 1, 2], [50.0, 50.0])
)
@example(  # a group that crosses no resource
    ([3.0, 7.0], [(), (0,)], [2, 2], [0, 1, 1, 0], [5.0])
)
def test_grouped_kernel_matches_per_flow_oracle(problem):
    """Allocations and utilization of the grouped kernel are the per-flow
    fill's bits, and so are :func:`solve_max_min`'s."""
    _grouped_vs_oracle(*problem)


@given(fairness_problems())
@settings(max_examples=200, deadline=None)
def test_solve_max_min_matches_per_flow_oracle(problem):
    demands, usage, capacities = problem
    d = np.array(demands, dtype=np.float64)
    caps = np.array(capacities, dtype=np.float64)
    want_alloc, want_util = per_flow_water_fill(
        d, build_membership(usage, caps.shape[0]), caps
    )
    sol = solve(demands, usage, capacities)
    assert sol.allocations.tobytes() == want_alloc.tobytes()
    assert sol.utilization.tobytes() == want_util.tobytes()


def test_build_membership_matches_per_flow_loop():
    usage = [(0, 2), (), (1,), (2, 0, 1), (1,)]
    want = np.zeros((3, len(usage)))
    for f, res in enumerate(usage):
        for r in res:
            want[r, f] = 1.0
    assert build_membership(usage, 3).tobytes() == want.tobytes()
