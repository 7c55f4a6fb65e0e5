"""The JSONL access log: writer, record schema, reader validation."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service import (
    ACCESS_LOG_VERSION,
    AccessLog,
    read_access_log,
    validate_access_record,
)


def http_fields(**over) -> dict:
    base = dict(method="GET", path="/healthz", endpoint="healthz",
                status=200, duration_s=0.001, trace_id="a" * 32)
    base.update(over)
    return base


class TestWriter:
    def test_one_line_per_record_sorted_keys(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with AccessLog(path) as w:
            w.append({"b": 1, "a": 2})
            w.append({"c": [1, 2]})
        lines = path.read_text().splitlines()
        assert lines == ['{"a":2,"b":1}', '{"c":[1,2]}']

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "log.jsonl"
        with AccessLog(path) as w:
            w.append({})
        assert path.exists()

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for i in range(2):
            with AccessLog(path) as w:
                w.append({"i": i})
        assert len(path.read_text().splitlines()) == 2


class TestAccessLog:
    def test_stamps_version_kind_ts(self, tmp_path):
        log = AccessLog(tmp_path / "a.jsonl")
        log.record("http", **http_fields())
        log.close()
        [rec] = list(read_access_log(tmp_path / "a.jsonl"))
        assert rec["v"] == ACCESS_LOG_VERSION
        assert rec["kind"] == "http"
        assert isinstance(rec["ts"], float)

    def test_none_fields_dropped(self, tmp_path):
        log = AccessLog(tmp_path / "a.jsonl")
        log.record("http", **http_fields(job_id=None))
        log.close()
        [rec] = list(read_access_log(tmp_path / "a.jsonl"))
        assert "job_id" not in rec

    def test_unknown_kind_rejected(self, tmp_path):
        log = AccessLog(tmp_path / "a.jsonl")
        with pytest.raises(ServiceError, match="kind"):
            log.record("telemetry", trace_id="a" * 32)


class TestValidate:
    def test_valid_http_and_job(self):
        assert validate_access_record(
            {"v": 1, "kind": "http", "ts": 1.0, "trace_id": "a" * 32,
             "status": 200}
        ) == []
        assert validate_access_record(
            {"v": 1, "kind": "job", "ts": 1.0, "trace_id": "a" * 32,
             "job_id": "job-1", "state": "done"}
        ) == []

    @pytest.mark.parametrize("junk", [
        None, [], "x", 42,
        {},                                               # everything missing
        {"v": 99, "kind": "http", "ts": 1.0, "trace_id": "a", "status": 200},
        {"v": 1, "kind": "nope", "ts": 1.0, "trace_id": "a"},
        {"v": 1, "kind": "http", "ts": "soon", "trace_id": "a", "status": 200},
        {"v": 1, "kind": "http", "ts": 1.0, "trace_id": "", "status": 200},
        {"v": 1, "kind": "http", "ts": 1.0, "trace_id": "a", "status": "200"},
        {"v": 1, "kind": "http", "ts": 1.0, "trace_id": "a", "status": True},
        {"v": 1, "kind": "job", "ts": 1.0, "trace_id": "a", "job_id": "",
         "state": "done"},
        {"v": 1, "kind": "job", "ts": 1.0, "trace_id": "a", "job_id": "j"},
    ])
    def test_junk_yields_errors_not_crashes(self, junk):
        assert validate_access_record(junk)


class TestReader:
    """Torn tails, corruption, empty and missing files: tests/test_jsonl.py."""

    def test_valid_json_invalid_schema_is_hard_error(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"v": 1}\n')
        with pytest.raises(ServiceError, match="invalid"):
            list(read_access_log(path))
