"""The fleet wire format: one JSONL record stream per machine.

Three kinds travel from a simulated machine to the aggregator:

``fleet_hello``   identity + node count, once, before any window;
``fleet_window``  one per monitor window: end cycle, sample count,
                  quarantine rate, and the per-channel view (share,
                  latency, damped status, verdict label/confidence);
``fleet_bye``     once, after the run: window/sample totals and the
                  machine's own ever-rmc summary.

Records share the monitor event envelope (``v``/``seq``/``kind``) with
*per-machine* sequence numbers, and the same writer
(:class:`~repro.monitor.events.EventLog`) with the fleet's own kind
table — so a wire file rotates, validates, and replays exactly like a
monitor event log.  :class:`MachineFeed` builds each record exactly once
and hands the same dict to every sink (in-process aggregator, HTTP push,
JSONL wire), which is what makes offline replay byte-equivalent to live
ingest.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator

from repro.errors import FleetError, MonitorError
from repro.fleet.identity import MachineIdentity
from repro.jsonl import read_jsonl
from repro.monitor.events import EVENT_STREAM_VERSION, EventLog, validate_event
from repro.monitor.monitor import LiveMonitor, WindowSnapshot

__all__ = [
    "WIRE_KINDS",
    "MachineFeed",
    "WireLog",
    "read_wire",
    "validate_wire_record",
]

#: kind -> keys required beyond the envelope (v, seq, kind).
WIRE_KINDS: dict[str, tuple[str, ...]] = {
    "fleet_hello": ("machine_id", "identity", "n_nodes"),
    "fleet_window": (
        "machine_id",
        "window",
        "end_cycle",
        "n_samples",
        "quarantine_rate",
        "channels",
        "rmc",
    ),
    "fleet_bye": ("machine_id", "windows", "samples", "ever_rmc", "rmc_channels"),
}

#: Keys every per-channel entry of a ``fleet_window`` record carries.
_CHANNEL_KEYS = ("share", "latency", "status", "label", "confidence", "n_remote")


def validate_wire_record(obj: object) -> dict:
    """Check one decoded wire record; returns it on success."""
    try:
        record = validate_event(obj, WIRE_KINDS)
    except MonitorError as exc:
        raise FleetError(str(exc)) from None
    if not isinstance(record["machine_id"], str) or not record["machine_id"]:
        raise FleetError(f"wire record needs a machine_id string: {record!r}")
    if record["kind"] == "fleet_window":
        channels = record["channels"]
        if not isinstance(channels, dict):
            raise FleetError(f"fleet_window channels must be an object: {record!r}")
        for tag, view in channels.items():
            if not isinstance(view, dict):
                raise FleetError(f"channel {tag!r} view is not an object")
            missing = [k for k in _CHANNEL_KEYS if k not in view]
            if missing:
                raise FleetError(f"channel {tag!r} view is missing keys {missing}")
    return record


class MachineFeed:
    """Builds one machine's wire records and pushes them to a sink.

    Wire ``drbw monitor``'s streaming spine into the fleet by passing
    :meth:`window` as the monitor's ``on_window`` callback; call
    :meth:`hello` before the run and :meth:`bye` after it.  The sink is
    any callable taking one record dict — typically a composition of
    ``WireLog.append`` and ``FleetAggregator.ingest``.
    """

    def __init__(
        self, identity: MachineIdentity, sink: Callable[[dict], None]
    ) -> None:
        self.identity = identity
        self.sink = sink
        self._seq = 0
        self.records = 0

    def _push(self, kind: str, payload: dict) -> dict:
        record = {
            "v": EVENT_STREAM_VERSION,
            "seq": self._seq,
            "kind": kind,
            "machine_id": self.identity.machine_id,
        }
        record.update(payload)
        validate_wire_record(record)
        self._seq += 1
        self.records += 1
        self.sink(record)
        return record

    def hello(self, n_nodes: int, **extra: object) -> dict:
        """Announce the machine; must precede every other record."""
        return self._push(
            "fleet_hello",
            {"identity": self.identity.to_dict(), "n_nodes": int(n_nodes), **extra},
        )

    def window(self, snapshot: WindowSnapshot) -> dict:
        """One monitor window -> one ``fleet_window`` record."""
        channels = {
            f"{ch.src}->{ch.dst}": {
                "share": view.remote_share,
                "latency": view.avg_remote_latency,
                "status": view.status.value,
                "label": view.verdict.label,
                "confidence": view.verdict.confidence,
                "n_remote": view.n_remote,
            }
            for ch, view in sorted(
                snapshot.channels.items(), key=lambda kv: (kv[0].src, kv[0].dst)
            )
        }
        return self._push(
            "fleet_window",
            {
                "window": snapshot.index,
                "end_cycle": float(snapshot.end_cycle),
                "n_samples": int(snapshot.n_samples),
                "quarantine_rate": float(snapshot.quarantine_rate),
                "channels": channels,
                "rmc": [f"{c.src}->{c.dst}" for c in snapshot.rmc_channels],
            },
        )

    def bye(self, monitor: LiveMonitor) -> dict:
        """Close the stream with the machine's own run summary."""
        return self._push(
            "fleet_bye",
            {
                "windows": monitor.window_index + 1,
                "samples": int(monitor.windows.n_samples),
                "ever_rmc": monitor.ever_rmc,
                "rmc_channels": sorted(
                    {
                        str(t.channel)
                        for t in monitor.transitions
                        if t.status.value == "rmc"
                    }
                ),
            },
        )


class WireLog(EventLog):
    """A rotating JSONL wire file shared by every machine in a run.

    Machines :meth:`~repro.monitor.events.EventLog.append` their
    pre-built records (per-machine ``seq``), so line order reflects
    arrival order — which is fine, because the aggregator's rollups are
    arrival-order independent by construction.
    """

    error = FleetError

    def validate(self, event: object) -> dict:
        return validate_wire_record(event)


def read_wire(path: str | Path) -> Iterator[dict]:
    """Replay a wire file (all rotated segments, oldest first)."""
    for _, record in read_jsonl(path, FleetError):
        yield validate_wire_record(record)
