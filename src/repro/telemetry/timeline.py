"""NUMAscope-style per-resource timelines.

NUMAscope's core move is to record per-interconnect hardware counters as
*time series*, so a saturated link is visible as a plateau rather than a
single averaged number.  The execution engine already keeps exact
interval-by-interval utilization histories on every directed interconnect
channel and every memory controller; this module snapshots those
histories into :class:`ResourceTimeline` objects — rebinned to a bounded
point count so artifacts stay small on long runs — and round-trips them
through JSONL (:mod:`repro.jsonl`) losslessly.

The module is import-light on purpose: it touches run results purely
through their public ``interconnect`` / ``memctrl`` / ``topology``
attributes, so :mod:`repro.numasim` can in turn import telemetry without
a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import TelemetryError
from repro.jsonl import JsonlLog, read_jsonl

if TYPE_CHECKING:  # pragma: no cover
    from repro.numasim.engine import RunResult

__all__ = [
    "TimelinePoint",
    "ResourceTimeline",
    "capture_run_timelines",
    "dump_timelines",
    "load_timelines",
    "sparkline",
]

#: Default cap on points per resource after rebinning.
MAX_TIMELINE_POINTS = 256

_SPARK_BLOCKS = " ▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class TimelinePoint:
    """One interval of one bandwidth resource."""

    start_cycle: float
    duration_cycles: float
    bytes_moved: float
    utilization: float

    @property
    def end_cycle(self) -> float:
        return self.start_cycle + self.duration_cycles


@dataclass(frozen=True)
class ResourceTimeline:
    """The utilization history of one link or memory controller.

    ``kind`` is ``"link"`` (directed interconnect channel, ``name`` like
    ``"0->1"``) or ``"memctrl"`` (per-node controller, ``name`` like
    ``"node0"``).  ``capacity`` is bytes/cycle.
    """

    kind: str
    name: str
    capacity: float
    points: tuple[TimelinePoint, ...]

    @property
    def total_bytes(self) -> float:
        return sum(p.bytes_moved for p in self.points)

    @property
    def mean_utilization(self) -> float:
        total = sum(p.duration_cycles for p in self.points)
        if total == 0:
            return 0.0
        return sum(p.utilization * p.duration_cycles for p in self.points) / total

    @property
    def peak_utilization(self) -> float:
        return max((p.utilization for p in self.points), default=0.0)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "capacity": self.capacity,
            "points": [
                [p.start_cycle, p.duration_cycles, p.bytes_moved, p.utilization]
                for p in self.points
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ResourceTimeline":
        return cls(
            kind=str(d["kind"]),
            name=str(d["name"]),
            capacity=float(d["capacity"]),
            points=tuple(
                TimelinePoint(
                    start_cycle=p[0],
                    duration_cycles=p[1],
                    bytes_moved=p[2],
                    utilization=p[3],
                )
                for p in d["points"]
            ),
        )


def _rebin(records: list, max_points: int) -> tuple[TimelinePoint, ...]:
    """Merge consecutive utilization records down to ``max_points``.

    Merging preserves total bytes and busy time exactly: the merged
    utilization is the duration-weighted mean of the members.
    """
    if len(records) <= max_points:
        return tuple(
            TimelinePoint(
                start_cycle=r.start_cycle,
                duration_cycles=r.duration_cycles,
                bytes_moved=r.bytes_moved,
                utilization=r.utilization,
            )
            for r in records
        )
    out: list[TimelinePoint] = []
    n = len(records)
    for i in range(max_points):
        lo = i * n // max_points
        hi = (i + 1) * n // max_points
        group = records[lo:hi]
        duration = sum(r.duration_cycles for r in group)
        busy = sum(r.utilization * r.duration_cycles for r in group)
        out.append(
            TimelinePoint(
                start_cycle=group[0].start_cycle,
                duration_cycles=duration,
                bytes_moved=sum(r.bytes_moved for r in group),
                utilization=busy / duration if duration > 0 else 0.0,
            )
        )
    return tuple(out)


def capture_run_timelines(
    result: "RunResult", max_points: int = MAX_TIMELINE_POINTS
) -> list[ResourceTimeline]:
    """Snapshot every channel's and controller's utilization history."""
    timelines: list[ResourceTimeline] = []
    fabric = result.interconnect
    for ch in fabric.channels:
        timelines.append(
            ResourceTimeline(
                kind="link",
                name=str(ch),
                capacity=fabric.capacity_of(ch),
                points=_rebin(fabric.history(ch), max_points),
            )
        )
    memctrl = result.memctrl
    for node in range(result.topology.n_sockets):
        timelines.append(
            ResourceTimeline(
                kind="memctrl",
                name=f"node{node}",
                capacity=float(memctrl.capacity),
                points=_rebin(memctrl.history(node), max_points),
            )
        )
    return timelines


def dump_timelines(timelines: Iterable[ResourceTimeline], path: str) -> None:
    """Write one JSON object per resource, one per line."""
    with JsonlLog(path, error=TelemetryError) as log:
        for tl in timelines:
            log.append(tl.to_dict())


def load_timelines(path: str) -> list[ResourceTimeline]:
    """Inverse of :func:`dump_timelines` (bit-exact floats)."""
    out: list[ResourceTimeline] = []
    for where, obj in read_jsonl(path, TelemetryError):
        try:
            out.append(ResourceTimeline.from_dict(obj))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise TelemetryError(f"{where} is malformed: {exc!r}") from None
    return out


def sparkline(timeline: ResourceTimeline, width: int = 48) -> str:
    """Render utilization over time as a fixed-width unicode strip.

    Each output column covers an equal slice of the run's cycle span and
    shows the duration-weighted mean utilization of the points falling in
    it (0 → space, saturated → full block).
    """
    pts = timeline.points
    if not pts:
        return " " * width
    t0 = pts[0].start_cycle
    t1 = max(p.end_cycle for p in pts)
    span = t1 - t0
    if span <= 0:
        level = min(len(_SPARK_BLOCKS) - 1, int(pts[-1].utilization * 8))
        return _SPARK_BLOCKS[level] * width

    busy = [0.0] * width
    time_in = [0.0] * width
    for p in pts:
        # Distribute the point over the columns it overlaps.
        lo = (p.start_cycle - t0) / span * width
        hi = (p.end_cycle - t0) / span * width
        col = int(lo)
        while col < hi and col < width:
            overlap = min(hi, col + 1) - max(lo, col)
            dt = overlap / width * span if span else 0.0
            busy[col] += p.utilization * dt
            time_in[col] += dt
            col += 1
    chars = []
    for b, t in zip(busy, time_in):
        u = b / t if t > 0 else 0.0
        chars.append(_SPARK_BLOCKS[min(len(_SPARK_BLOCKS) - 1, int(u * 8 + 0.5))])
    return "".join(chars)
