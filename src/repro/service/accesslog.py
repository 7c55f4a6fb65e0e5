"""Structured JSONL access log for the profiling service.

Two record kinds share one file (and one schema version):

``http``
    One record per HTTP request, written by the server after the
    response is sent: method, path, resolved endpoint, status, wall
    duration, and the request's trace/span ids (client-sent or
    server-minted).  Submit records additionally carry the job id and
    the ``coalesced``/``cache_hit`` flags the queue resolved.

``job``
    One record per job reaching a terminal state, written by the queue:
    job id, job kind as the endpoint, final state, queue wait and
    execution wall seconds, attempts, and the submitting request's
    trace id (coalesced followers also carry ``primary_trace_id`` — the
    trace whose execution produced their result, which is the trace the
    merged worker spans are tagged with).

Every record carries ``v`` (schema version), ``kind``, ``ts`` (unix
seconds), and a non-empty ``trace_id``; :func:`read_access_log` enforces
exactly that and raises a typed :class:`~repro.errors.ServiceError` on
junk, so downstream joins (CI's trace ⇄ span check, the loadgen report)
never crash on a hand-edited line.

The log is a :class:`repro.jsonl.JsonlLog` reopened for append across
restarts, so torn lines follow that module's single policy.
"""

from __future__ import annotations

import pathlib
import time
from typing import Iterator

from repro.errors import ServiceError
from repro.jsonl import JsonlLog, read_jsonl

__all__ = [
    "ACCESS_LOG_VERSION",
    "AccessLog",
    "read_access_log",
    "validate_access_record",
]

#: Schema version stamped into every record as ``v``.
ACCESS_LOG_VERSION = 1

_RECORD_KINDS = frozenset({"http", "job"})


class AccessLog(JsonlLog):
    """JSONL access log; stamps schema version and timestamp per record."""

    def __init__(self, path: str | pathlib.Path) -> None:
        super().__init__(path, error=ServiceError, resume=True)

    def record(self, kind: str, **fields: object) -> None:
        if kind not in _RECORD_KINDS:
            raise ServiceError(
                f"unknown access-log record kind {kind!r}; "
                f"expected one of {sorted(_RECORD_KINDS)}"
            )
        rec = {"v": ACCESS_LOG_VERSION, "kind": kind, "ts": round(time.time(), 6)}
        rec.update({k: v for k, v in fields.items() if v is not None})
        self.append(rec)


def validate_access_record(record: object) -> list[str]:
    """Schema problems for one parsed record (empty list = valid).

    Total over arbitrary JSON values — a list, scalar, or null record
    yields error strings, never an attribute crash.
    """
    if not isinstance(record, dict):
        return [f"record must be a JSON object, got {type(record).__name__}"]
    errors = []
    if record.get("v") != ACCESS_LOG_VERSION:
        errors.append(f"v must be {ACCESS_LOG_VERSION}, got {record.get('v')!r}")
    if record.get("kind") not in _RECORD_KINDS:
        errors.append(f"kind must be one of {sorted(_RECORD_KINDS)}, "
                      f"got {record.get('kind')!r}")
    ts = record.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        errors.append(f"ts must be a number, got {ts!r}")
    trace_id = record.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        errors.append(f"trace_id must be a non-empty string, got {trace_id!r}")
    if record.get("kind") == "http":
        status = record.get("status")
        if not isinstance(status, int) or isinstance(status, bool):
            errors.append(f"http record status must be an integer, got {status!r}")
    if record.get("kind") == "job":
        for key in ("job_id", "state"):
            val = record.get(key)
            if not isinstance(val, str) or not val:
                errors.append(
                    f"job record {key} must be a non-empty string, got {val!r}"
                )
    return errors


def read_access_log(path: str | pathlib.Path) -> Iterator[dict]:
    """Yield validated records; :class:`ServiceError` on malformed lines."""
    for where, record in read_jsonl(path, ServiceError):
        errors = validate_access_record(record)
        if errors:
            raise ServiceError(
                f"access log {where} is invalid: {'; '.join(errors)}"
            )
        yield record
