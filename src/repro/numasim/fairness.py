"""Demand-bounded max-min fair bandwidth allocation (progressive filling).

Memory controllers and interconnect links are shared by many concurrent
flows (one flow per thread × stream × target node).  Real hardware
arbiters approximate fair queuing, so we allocate bandwidth with the
textbook *water-filling* algorithm:

1. grow every unfrozen flow's allocation at the same rate;
2. a flow freezes when it reaches its demand, or when some resource it
   crosses saturates;
3. repeat until all flows are frozen.

The result is the unique demand-bounded max-min fair allocation.  Its
defining properties — no resource over capacity, no allocation above
demand, and Pareto optimality (every unsatisfied flow crosses a saturated
resource) — are enforced by property-based tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "FairnessProblem",
    "FairnessSolution",
    "FlowGroups",
    "build_membership",
    "solve_max_min",
    "water_fill",
]

_EPS = 1e-12


@dataclass(frozen=True)
class FairnessProblem:
    """``demands[f]`` in bytes/cycle; ``usage[f]`` = resource indices flow f crosses."""

    demands: np.ndarray
    usage: list[tuple[int, ...]]
    capacities: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.demands, dtype=np.float64)
        c = np.asarray(self.capacities, dtype=np.float64)
        if d.ndim != 1 or c.ndim != 1:
            raise SimulationError("demands and capacities must be 1-D")
        if len(self.usage) != d.shape[0]:
            raise SimulationError("usage list must match number of flows")
        if np.any(d < 0):
            raise SimulationError("demands must be >= 0")
        if np.any(c <= 0):
            raise SimulationError("capacities must be > 0")
        n_res = c.shape[0]
        for f, res in enumerate(self.usage):
            for r in res:
                if not 0 <= r < n_res:
                    raise SimulationError(f"flow {f} crosses unknown resource {r}")


@dataclass(frozen=True)
class FairnessSolution:
    """Allocations per flow (per group, from :func:`water_fill`) and the
    resulting per-resource utilization."""

    allocations: np.ndarray
    utilization: np.ndarray

    def throttle(self, demands: np.ndarray) -> np.ndarray:
        """Allocated/demand ratio in [0, 1] (1 for zero demand), aligned with
        :attr:`allocations`."""
        d = np.asarray(demands, dtype=np.float64)
        out = np.ones_like(d)
        nz = d > _EPS
        out[nz] = np.minimum(1.0, self.allocations[nz] / d[nz])
        return out


def build_membership(usage: list[tuple[int, ...]], n_res: int) -> np.ndarray:
    """Membership matrix ``M[r, f] = 1`` when flow ``f`` crosses resource ``r``."""
    member = np.zeros((n_res, len(usage)), dtype=np.float64)
    lens = np.fromiter(map(len, usage), dtype=np.int64, count=len(usage))
    res = np.fromiter(chain.from_iterable(usage), dtype=np.int64, count=int(lens.sum()))
    member[res, np.repeat(np.arange(len(usage)), lens)] = 1.0
    return member


@dataclass(frozen=True)
class FlowGroups:
    """A flow set folded into groups of interchangeable flows.

    Every flow of a group crosses the same resources and carries the same
    demand, so max-min fairness gives each of them the same allocation and
    the water-fill treats the group as one flow counted
    ``multiplicity[g]`` times.  ``usage[g]`` lists the resources (of
    ``n_res``) group ``g`` crosses and ``flow_group[f]`` is flow ``f``'s
    group; ``flow_member`` is the per-flow membership matrix that
    utilization is summed over.
    """

    usage: list[tuple[int, ...]]
    flow_group: np.ndarray
    n_res: int
    multiplicity: list[int] = field(init=False)
    flow_member: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        counts = np.bincount(self.flow_group, minlength=len(self.usage))
        object.__setattr__(self, "multiplicity", counts.tolist())
        # C order, as a per-flow build gives: BLAS picks its summation
        # order (and so the utilization bits) by the matrix layout.
        member = build_membership(self.usage, self.n_res)[:, self.flow_group]
        object.__setattr__(self, "flow_member", np.ascontiguousarray(member))


def solve_max_min(problem: FairnessProblem) -> FairnessSolution:
    """Compute the demand-bounded max-min fair allocation, one allocation per flow."""
    demands = np.asarray(problem.demands, dtype=np.float64)
    capacities = np.asarray(problem.capacities, dtype=np.float64)
    groups = FlowGroups(
        usage=list(problem.usage),
        flow_group=np.arange(demands.shape[0]),
        n_res=capacities.shape[0],
    )
    return water_fill(demands, groups, capacities)


def water_fill(
    demands: np.ndarray,
    groups: FlowGroups,
    capacities: np.ndarray,
) -> FairnessSolution:
    """Progressive filling over flow groups; ``demands`` and the returned
    allocations are per group.

    Each round raises every active flow by one increment: the least of
    every loaded resource's residual share and every active flow's
    remaining demand.  So all active flows hold one scalar water level,
    and a group takes the level when it freezes.  A resource's active
    flow count is the sum of its active groups' multiplicities, an exact
    integer — the one a per-flow ``member @ active`` sums — so every
    increment, residual and freeze test is the per-flow fill's IEEE
    operation on the same operands.  Only loaded resources change, so
    only they are re-priced; residuals only fall, so a resource saturates
    once and its active groups freeze in that round.  Utilization is the
    per-flow membership matrix times the expanded per-flow allocation.

    Each round freezes at least one group, so the fill ends within
    ``n_groups + 1`` rounds.
    """
    n_groups = demands.shape[0]
    n_res = capacities.shape[0]

    if n_res == 0 or n_groups == 0:
        return FairnessSolution(
            allocations=demands.copy(),
            utilization=np.zeros(n_res, dtype=np.float64),
        )

    dem = demands.tolist()
    residual = capacities.tolist()
    usage = groups.usage
    mult = groups.multiplicity
    # Active groups in ascending demand: rounding is monotone, so the
    # least remaining demand ``dem[g] - level`` is the first group's.
    order = sorted([g for g in range(n_groups) if dem[g] > _EPS], key=dem.__getitem__)
    is_active = [False] * n_groups
    counts = [0] * n_res  # active flows per resource
    res_groups: list[list[int]] = [[] for _ in range(n_res)]
    for g in order:
        is_active[g] = True
        for r in usage[g]:
            counts[r] += mult[g]
            res_groups[r].append(g)
    loaded = [r for r in range(n_res) if counts[r]]
    # Right-hand side of the "resource saturated" test, as the per-flow fill.
    saturated_below = [_EPS * (c if c > 1.0 else 1.0) for c in residual]
    alloc = [0.0] * n_groups
    level = 0.0
    head = 0  # order[head] is the least-demand active group

    for _ in range(n_groups + 1):
        while head < len(order) and not is_active[order[head]]:
            head += 1
        if head == len(order):
            break
        delta = dem[order[head]] - level
        for r in loaded:
            share = residual[r] / counts[r]
            if share < delta:
                delta = share
        if not math.isfinite(delta):  # pragma: no cover - defensive
            raise SimulationError("water-filling produced non-finite increment")
        delta = max(delta, 0.0)

        level += delta
        # A group is satisfied when dem - level <= _EPS * max(dem, 1) + _EPS.
        # That needs dem < (level + 2.1e-12) * (1 + 2.1e-12) (rounding
        # included), so the scan in ascending demand stops there.
        bound = (level + 2.1e-12) * (1.0 + 2.1e-12)
        frozen = []
        for g in order[head:]:
            d = dem[g]
            if d > bound:
                break
            if is_active[g] and d - level <= _EPS * (d if d > 1.0 else 1.0) + _EPS:
                frozen.append(g)
        for r in loaded:
            # A negative residual (rounding) saturates the resource, which
            # is then never priced again: no clamp to zero is needed.
            left = residual[r] = residual[r] - delta * counts[r]
            if left <= saturated_below[r]:
                frozen.extend(res_groups[r])
        if not frozen:  # pragma: no cover - defensive
            raise SimulationError("water-filling failed to make progress")
        for g in frozen:
            if is_active[g]:
                is_active[g] = False
                alloc[g] = level
                for r in usage[g]:
                    counts[r] -= mult[g]
        loaded = [r for r in loaded if counts[r]]
    else:  # pragma: no cover - defensive
        raise SimulationError("water-filling exceeded its round budget")

    alloc_arr = np.array(alloc, dtype=np.float64)
    used = groups.flow_member @ alloc_arr[groups.flow_group]
    utilization = np.minimum(used / capacities, 1.0)
    return FairnessSolution(allocations=alloc_arr, utilization=utilization)
