"""Append-only JSONL event stream for monitor sessions.

One JSON object per line, written and replayed through :mod:`repro.jsonl`,
so a killed run leaves a readable prefix.  Every event carries a format
version, a monotonically increasing sequence number, and a ``kind``; the
remaining keys are kind-specific.  :func:`validate_event` checks one
decoded object and :func:`read_events` replays (and validates) a whole
stream, so CI can assert on a run's alert history without parsing logs.

Long-lived streams (a fleet run is open-ended) can cap the file with
size-based rotation (``max_bytes``); :func:`read_events` replays every
surviving segment oldest first.  The fleet wire (:mod:`repro.fleet.wire`)
subclasses :class:`EventLog`.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterator, Mapping

from repro.errors import MonitorError, ReproError
from repro.jsonl import JsonlLog, read_jsonl

__all__ = [
    "EVENT_KINDS",
    "EventLog",
    "read_events",
    "validate_event",
]

EVENT_STREAM_VERSION = 1

#: kind -> keys required beyond the envelope (v, seq, kind).
EVENT_KINDS: dict[str, tuple[str, ...]] = {
    "monitor_started": ("window_intervals", "n_nodes"),
    "channel_status": ("channel", "status", "previous", "window", "confidence"),
    "alert_firing": ("rule", "severity", "window", "value", "threshold"),
    "alert_resolved": ("rule", "severity", "window", "value", "threshold"),
    "monitor_finished": ("windows", "samples", "rmc_channels"),
}


def validate_event(
    obj: object, kinds: Mapping[str, tuple[str, ...]] = EVENT_KINDS
) -> dict:
    """Check one decoded event object; returns it on success."""
    if not isinstance(obj, dict):
        raise MonitorError(f"event is not a JSON object: {obj!r}")
    for key in ("v", "seq", "kind"):
        if key not in obj:
            raise MonitorError(f"event is missing envelope key {key!r}: {obj!r}")
    if obj["v"] != EVENT_STREAM_VERSION:
        raise MonitorError(
            f"unsupported event stream version {obj['v']!r} "
            f"(expected {EVENT_STREAM_VERSION})"
        )
    kind = obj["kind"]
    required = kinds.get(kind)
    if required is None:
        raise MonitorError(f"unknown event kind {kind!r}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise MonitorError(f"{kind} event is missing keys {missing}: {obj!r}")
    return obj


class EventLog(JsonlLog):
    """Writes validated events to a fresh JSONL file, one per line, flushed.

    With ``max_bytes`` set, the file rotates once a write pushes it past
    the cap, so total disk use is bounded by roughly ``(keep_segments +
    1) * max_bytes`` no matter how long the stream runs.  Sequence
    numbers keep counting across rotations.  Safe to share between
    threads.  Subclasses swap the vocabulary by overriding
    :meth:`validate` and the error type by overriding ``error``.
    """

    error: type[ReproError] = MonitorError

    def __init__(
        self, path: str | Path, *, max_bytes: int | None = None, keep_segments: int = 3
    ) -> None:
        super().__init__(
            path, error=self.error, max_bytes=max_bytes, keep_segments=keep_segments
        )
        self._seq = 0
        self._emit_lock = threading.Lock()

    def validate(self, event: object) -> dict:
        return validate_event(event)

    def emit(self, kind: str, **payload: object) -> dict:
        """Append one event under a fresh envelope; returns the object."""
        with self._emit_lock:
            event = {"v": EVENT_STREAM_VERSION, "seq": self._seq, "kind": kind}
            event.update(payload)
            self.append(event)
            self._seq += 1
        return event

    def append(self, event: dict) -> dict:
        """Append a pre-built event (envelope included) after validating.

        The fleet wire uses this: records are constructed once at the
        machine feed (with per-machine sequence numbers) and the same
        object goes to the in-process aggregator and to the JSONL wire.
        """
        self.validate(event)
        if self.closed:
            raise self.error(f"event log {self.path} is closed")
        super().append(event)
        return event


def read_events(path: str | Path) -> Iterator[dict]:
    """Replay an event stream (every rotated segment, oldest first)."""
    for _, obj in read_jsonl(path, MonitorError):
        yield validate_event(obj)
