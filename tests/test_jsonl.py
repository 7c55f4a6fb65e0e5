"""One torn-tail policy, checked through every JSONL site's own reader.

Each site below writes records ``0..n-1`` with its real writer and reads
them back with its real reader as the list of record indices, so one
set of cases covers the primitive (:mod:`repro.jsonl`) and all of its
callers: a torn final line is dropped, interior corruption is the
site's typed error naming ``path:line``, an empty file is empty, a
missing file is the site's error (or a fresh start, for the journal),
rotated segments replay oldest first, and an append-mode writer
reopened on a torn file repairs it before appending.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.errors import (
    FleetError,
    MonitorError,
    ParallelError,
    ReproError,
    ServiceError,
    TelemetryError,
)
from repro.fleet.wire import WireLog, read_wire
from repro.jsonl import JsonlLog, read_jsonl, segments
from repro.monitor.events import EventLog, read_events
from repro.parallel.journal import CampaignJournal
from repro.service.accesslog import AccessLog, read_access_log
from repro.telemetry import Telemetry
from repro.telemetry.artifact import export_artifact, load_artifact
from repro.telemetry.timeline import ResourceTimeline, dump_timelines, load_timelines

from tests.fleet.conftest import make_stream

TORN = '{"v": 1, "seq": 99, "kind": "tor'


# -- writers: (path, n[, start]) put records start..start+n-1 on disk --------


def _events(path: Path, n: int, **rotation) -> None:
    with EventLog(path, **rotation) as log:
        for i in range(n):
            log.emit("channel_status", channel="1->0", status="good",
                     previous="good", window=i, confidence=0.5)


def _wire(path: Path, n: int, **rotation) -> None:
    with WireLog(path, **rotation) as log:
        for record in make_stream("m000", windows=n)[:n]:
            log.append(record)


def _raw(path: Path, n: int, start: int = 0, **options) -> None:
    with JsonlLog(path, **options) as log:
        for i in range(start, start + n):
            log.append({"seq": i})


def _access(path: Path, n: int, start: int = 0) -> None:
    with AccessLog(path) as log:
        for i in range(start, start + n):
            log.record("job", job_id=f"job-{i}", state="done",
                       trace_id=f"{i:032x}")


def _journal(path: Path, n: int, start: int = 0) -> None:
    with CampaignJournal(path, 0, resume=start > 0) as jrn:
        for i in range(start, start + n):
            jrn.record(i, f"key-{i}", f"cfg-{i}", {"i": i, "x": [i / 3]})


def _read_journal(path: Path) -> list[int]:
    with CampaignJournal(path, 0, resume=True) as jrn:
        return [json.loads(line)["i"] for line in jrn.merged_payload_lines()]


def _spans(path: Path, n: int) -> None:
    tel = Telemetry(enabled=True)
    for i in range(n):
        with tel.span(f"s{i}"):
            pass
    export_artifact(str(path.parent), tel, {"artifact_version": 1})


def _timelines(path: Path, n: int) -> None:
    dump_timelines(
        [ResourceTimeline("link", str(i), 1.0, ()) for i in range(n)], str(path)
    )


@dataclass(frozen=True)
class Site:
    name: str
    filename: str
    error: type[ReproError]
    write: Callable[..., None]
    read: Callable[[Path], list[int]]
    #: True for the journal: a missing journal is a fresh start.
    missing_is_empty: bool = False


SITES = [
    Site("events", "run.events.jsonl", MonitorError, _events,
         lambda p: [e["seq"] for e in read_events(p)]),
    Site("wire", "fleet.wire.jsonl", FleetError, _wire,
         lambda p: [r["seq"] for r in read_wire(p)]),
    Site("access-log", "access.jsonl", ServiceError, _access,
         lambda p: [int(r["trace_id"], 16) for r in read_access_log(p)]),
    Site("span-log", "spans.jsonl", ServiceError,
         lambda p, n, start=0: _raw(p, n, start, error=ServiceError, resume=True),
         lambda p: [r["seq"] for _, r in read_jsonl(p, ServiceError)]),
    Site("journal", "campaign.journal.jsonl", ParallelError, _journal,
         _read_journal, missing_is_empty=True),
    Site("artifact-spans", "spans.jsonl", TelemetryError, _spans,
         lambda p: [int(s["name"][1:]) for s in load_artifact(str(p.parent)).spans]),
    Site("timelines", "timeline.jsonl", TelemetryError, _timelines,
         lambda p: [int(tl.name) for tl in load_timelines(str(p))]),
]
APPENDING = [s for s in SITES if s.name in ("access-log", "span-log", "journal")]
ROTATING = {"events": _events, "wire": _wire, "raw": _raw}


def _ids(sites):
    return [s.name for s in sites]


@pytest.fixture(params=SITES, ids=_ids(SITES))
def site(request, tmp_path):
    return request.param, tmp_path / request.param.filename


def test_torn_tail_dropped(site):
    site, path = site
    site.write(path, 3)
    with open(path, "a") as fh:
        fh.write(TORN)  # the process died mid-write
    assert site.read(path) == [0, 1, 2]


def test_interior_corruption_is_typed_and_located(site):
    site, path = site
    site.write(path, 3)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = "{oops\n"
    path.write_text("".join(lines))
    with pytest.raises(site.error, match=re.escape(f"{path}:2")):
        site.read(path)


def test_empty_file(site):
    site, path = site
    site.write(path, 0)
    path.write_bytes(b"")
    assert site.read(path) == []


def test_missing_file(site):
    site, path = site
    site.write(path, 1)
    path.unlink()
    if site.missing_is_empty:
        assert site.read(path) == []
    else:
        with pytest.raises(site.error, match="cannot read .*not found"):
            site.read(path)


@pytest.mark.parametrize("site", APPENDING, ids=_ids(APPENDING))
def test_reopen_after_torn_tail_appends_clean_records(site, tmp_path):
    path = tmp_path / site.filename
    clean = tmp_path / "clean" / site.filename
    site.write(clean, 4)
    site.write(path, 2)
    with open(path, "a") as fh:
        fh.write(TORN)
    site.write(path, 2, start=2)  # a restarted writer resumes the file
    assert site.read(path) == site.read(clean) == [0, 1, 2, 3]


def test_reopened_journal_renders_the_clean_payload_stream(tmp_path):
    """The ``campaign --resume J --out F`` crash path: a torn journal is
    resumed, new shards are checkpointed, and the ``--out`` reopen
    renders exactly the bytes of an uninterrupted run."""
    clean, torn = tmp_path / "clean.jsonl", tmp_path / "torn.jsonl"
    _journal(clean, 5)
    _journal(torn, 2)
    with open(torn, "a") as fh:
        fh.write('{"config_hash":"cfg-2","key":"key-2","pay')
    _journal(torn, 3, start=2)
    with CampaignJournal(clean, 0, resume=True) as a, \
            CampaignJournal(torn, 0, resume=True) as b:
        assert b.merged_payload_lines() == a.merged_payload_lines()
        assert len(b) == 5


@pytest.mark.parametrize("writer", list(ROTATING), ids=list(ROTATING))
def test_rotation_replays_segments_oldest_first(writer, tmp_path):
    """Old records fall off; what remains is a gapless, in-order suffix
    ending at the last record written."""
    path = tmp_path / "log.jsonl"
    ROTATING[writer](path, 200, max_bytes=600, keep_segments=2)
    assert 1 < len(segments(path)) <= 3
    assert not path.with_name("log.jsonl.3").exists()
    seqs = [r["seq"] for _, r in read_jsonl(path)]
    assert seqs == list(range(seqs[0], 200))
    assert seqs[0] > 0, "rotation must have dropped the oldest records"


def test_fresh_log_deletes_stale_segments(tmp_path):
    path = tmp_path / "log.jsonl"
    _raw(path, 100, max_bytes=200)
    assert len(segments(path)) > 1
    _raw(path, 2)
    assert segments(path) == [path]
    assert [r["seq"] for _, r in read_jsonl(path)] == [0, 1]


def test_writes_after_close_are_dropped(tmp_path):
    path = tmp_path / "log.jsonl"
    log = JsonlLog(path)
    log.append({"seq": 0})
    log.close()
    log.append({"seq": 1})
    assert [r["seq"] for _, r in read_jsonl(path)] == [0]


def test_fsync_interval_zero_syncs_every_record(tmp_path, monkeypatch):
    import os

    synced = []
    monkeypatch.setattr(os, "fsync", synced.append)
    _raw(tmp_path / "log.jsonl", 3, fsync_interval_s=0.0)
    assert len(synced) == 4  # one per record plus one at close
    synced.clear()
    _raw(tmp_path / "plain.jsonl", 3)
    assert synced == []


def test_unopenable_path_is_the_callers_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(ServiceError, match="cannot open"):
        JsonlLog(blocker / "log.jsonl", error=ServiceError)
