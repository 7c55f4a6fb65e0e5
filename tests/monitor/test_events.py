"""JSONL event stream: write, replay, validate, rotate."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import MonitorError
from repro.jsonl import segments as log_segments
from repro.monitor.events import (
    EventLog,
    read_events,
    validate_event,
)


def test_roundtrip(tmp_path):
    path = tmp_path / "run.events.jsonl"
    with EventLog(path) as log:
        log.emit("monitor_started", window_intervals=8, n_nodes=4)
        log.emit("channel_status", channel="0->1", status="rmc",
                 previous="good", window=3, confidence=0.93)
        log.emit("alert_firing", rule="channel-rmc", severity="critical",
                 window=3, value=1.0, threshold=1.0, channel="0->1")
        log.emit("monitor_finished", windows=10, samples=5000,
                 rmc_channels=["0->1"])
    events = list(read_events(path))
    assert [e["kind"] for e in events] == [
        "monitor_started", "channel_status", "alert_firing", "monitor_finished"
    ]
    assert [e["seq"] for e in events] == [0, 1, 2, 3]
    assert all(e["v"] == 1 for e in events)


def test_emit_rejects_bad_events(tmp_path):
    with EventLog(tmp_path / "e.jsonl") as log:
        with pytest.raises(MonitorError):
            log.emit("bogus_kind")
        with pytest.raises(MonitorError):
            log.emit("alert_firing", rule="x")  # missing keys
    with pytest.raises(MonitorError):
        log.emit("monitor_started", window_intervals=1, n_nodes=2)  # closed


def test_partial_stream_is_readable(tmp_path):
    """A crashed run leaves a valid prefix (per-event flush)."""
    path = tmp_path / "e.jsonl"
    log = EventLog(path)
    log.emit("monitor_started", window_intervals=4, n_nodes=2)
    # No close() — simulate a hard kill; the line must already be on disk.
    assert [e["kind"] for e in read_events(path)] == ["monitor_started"]
    log.close()


def test_read_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"v": 1, "seq": 0, "kind": "monitor_started"\n')
    with pytest.raises(MonitorError, match="malformed JSON"):
        list(read_events(path))
    path.write_text('{"v": 99, "seq": 0, "kind": "monitor_started"}\n')
    with pytest.raises(MonitorError, match="version"):
        list(read_events(path))
    with pytest.raises(MonitorError, match="not found"):
        list(read_events(tmp_path / "missing.jsonl"))


def test_validate_event_requires_envelope_and_kind_keys():
    with pytest.raises(MonitorError):
        validate_event("not a dict")
    with pytest.raises(MonitorError):
        validate_event({"v": 1, "seq": 0})
    with pytest.raises(MonitorError):
        validate_event({"v": 1, "seq": 0, "kind": "unknown"})
    ok = {"v": 1, "seq": 0, "kind": "monitor_finished",
          "windows": 1, "samples": 2, "rmc_channels": []}
    assert validate_event(ok) is ok


def test_events_are_plain_json(tmp_path):
    path = tmp_path / "e.jsonl"
    with EventLog(path) as log:
        log.emit("monitor_started", window_intervals=8, n_nodes=4)
    raw = path.read_text().splitlines()
    assert len(raw) == 1
    assert json.loads(raw[0])["kind"] == "monitor_started"


# -- size-based rotation -----------------------------------------------------


def _emit_many(log: EventLog, n: int) -> None:
    for i in range(n):
        log.emit("channel_status", channel="0->1", status="rmc",
                 previous="good", window=i, confidence=0.5)


def test_rotation_caps_live_file_and_keeps_last_segments(tmp_path):
    path = tmp_path / "e.jsonl"
    with EventLog(path, max_bytes=512, keep_segments=2) as log:
        _emit_many(log, 100)
    segments = log_segments(path)
    # keep_segments rotated files plus the live one, nothing more.
    assert segments[-1] == path
    assert len(segments) <= 3
    assert len(segments) > 1, "100 events must have rotated a 512-byte log"
    assert not (tmp_path / "e.jsonl.3").exists()
    for seg in segments[:-1]:
        # A rotated segment closed just after crossing the cap.
        assert seg.stat().st_size >= 512
        assert seg.stat().st_size < 1024


def test_no_rotation_without_cap(tmp_path):
    path = tmp_path / "e.jsonl"
    with EventLog(path) as log:
        _emit_many(log, 200)
    assert log_segments(path) == [path]
    assert len(list(read_events(path))) == 200


def test_rotation_validates_config(tmp_path):
    with pytest.raises(MonitorError, match="max_bytes"):
        EventLog(tmp_path / "e.jsonl", max_bytes=0)
    with pytest.raises(MonitorError, match="keep_segments"):
        EventLog(tmp_path / "e.jsonl", max_bytes=100, keep_segments=0)


def test_append_prebuilt_records_and_rotation_thread_safety(tmp_path):
    """Concurrent writers (the fleet wire case) never tear a line or
    lose a record to a rotation race."""
    path = tmp_path / "e.jsonl"
    per_thread = 50
    with EventLog(path, max_bytes=600, keep_segments=8) as log:
        def writer(tid: int) -> None:
            for i in range(per_thread):
                log.append({
                    "v": 1, "seq": i, "kind": "channel_status",
                    "channel": f"{tid}->0", "status": "good",
                    "previous": "good", "window": i, "confidence": 0.1,
                })
        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    events = list(read_events(path))
    assert len(events) <= 4 * per_thread
    by_channel: dict[str, list[int]] = {}
    for e in events:
        by_channel.setdefault(e["channel"], []).append(e["seq"])
    for seqs in by_channel.values():
        # Each writer's surviving records are a contiguous ordered tail.
        assert seqs == list(range(seqs[0], per_thread))


def test_append_validates(tmp_path):
    with EventLog(tmp_path / "e.jsonl") as log:
        with pytest.raises(MonitorError):
            log.append({"v": 1, "seq": 0, "kind": "bogus"})
