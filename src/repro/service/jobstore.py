"""In-memory job registry: states, results, and status payloads.

A :class:`Job` moves ``queued -> running -> done`` (or ``failed``).
Jobs answered from the warm-result cache are born ``done``; jobs that
attached to an identical in-flight execution (coalesced) never run and
go straight from ``queued`` to its terminal state.  Their status
payload says so, because "why was this instant?" is the first question
an operator asks.

The store is a dict behind one lock.  That is deliberate: the service
is a front-end for *minutes*-scale profiling jobs, so job-table
operations are never the bottleneck.  Coalescing (one primary per key,
followers finishing with its exact result bytes) lives in the queue's
flight table, under the queue's lock, not here.

Multi-process serving adds two things:

* an **id prefix** — pre-forked workers each run their own store, so ids
  must be unique fleet-wide (``job-w0-000001`` vs ``job-w1-000001``), or
  a status poll landing on the wrong worker could answer for the wrong
  job;
* a **shared record directory** — the kernel load-balances connections
  across workers, so the worker answering ``GET /v1/jobs/<id>`` is often
  not the one that accepted the job.  Every store publishes a small JSON
  record per job (at submit and at each terminal state, atomically via
  tmp + rename) that any sibling can serve status/result from.  Records
  from siblings are a *fallback*: the accepting worker always answers
  from memory, and a sibling's view may lag by one state transition
  (``queued`` while actually running), which a polling client cannot
  distinguish anyway.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import pathlib
import re
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ServiceError

__all__ = ["Job", "JobStore", "JOB_STATES", "JOB_RECORD_SCHEMA"]

logger = logging.getLogger(__name__)

#: Envelope schema of the shared per-job record files.
JOB_RECORD_SCHEMA = "drbw-job-record"

#: Job ids are server-minted, but they arrive back via URLs — anything
#: outside this shape is rejected before touching the filesystem.
_SAFE_JOB_ID = re.compile(r"[A-Za-z0-9_-]+\Z")

#: Legal job states.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class Job:
    """One submitted job and everything the status endpoints report."""

    id: str
    key: str
    spec: dict
    state: str = "queued"
    #: Canonical-JSON result text (``done`` only) — the exact bytes the
    #: CLI ``--json`` path would print for the same spec.
    result_text: str | None = None
    error: str | None = None
    #: True when this job attached to another job's in-flight execution.
    coalesced: bool = False
    #: True when the result came from the warm cache without executing.
    cache_hit: bool = False
    #: Execution attempts so far (> 1 only after a watchdog requeue).
    attempts: int = 0
    #: Trace id of the submitting request (client-sent or server-minted);
    #: merged worker spans for an executed job are tagged with it.
    trace_id: str | None = None
    #: For coalesced followers: the primary's trace id — the trace whose
    #: execution actually produced this job's result.
    primary_trace_id: str | None = None
    created_s: float = field(default_factory=time.monotonic)
    started_s: float | None = None
    finished_s: float | None = None

    def status_payload(self) -> dict:
        """The JSON body of ``GET /v1/jobs/<id>``."""
        payload = {
            "id": self.id,
            "key": self.key,
            "kind": self.spec.get("kind"),
            "state": self.state,
            "coalesced": self.coalesced,
            "cache_hit": self.cache_hit,
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.primary_trace_id is not None:
            payload["primary_trace_id"] = self.primary_trace_id
        if self.attempts > 1:
            payload["attempts"] = self.attempts
        if self.error is not None:
            payload["error"] = self.error
        if self.finished_s is not None:
            base = self.started_s if self.started_s is not None else self.created_s
            payload["duration_s"] = round(self.finished_s - base, 6)
        return payload

    def queue_wait_s(self) -> float | None:
        """Seconds from submission to execution start (0 for instant paths)."""
        if self.started_s is not None:
            return max(0.0, self.started_s - self.created_s)
        if self.finished_s is not None:
            return max(0.0, self.finished_s - self.created_s)
        return None

    def exec_s(self) -> float | None:
        """Execution wall seconds (0 for cache hits / followers)."""
        if self.finished_s is None:
            return None
        if self.started_s is None:
            return 0.0
        return max(0.0, self.finished_s - self.started_s)


class JobStore:
    """Thread-safe id -> :class:`Job` table.

    ``prefix`` makes ids unique across pre-forked workers; ``shared_dir``
    (multi-process mode only) is where this store publishes per-job
    records and reads siblings' — see the module docstring.
    """

    def __init__(self, prefix: str = "job",
                 shared_dir: str | os.PathLike | None = None) -> None:
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._prefix = prefix
        self._shared_dir = (
            pathlib.Path(shared_dir) if shared_dir is not None else None
        )

    def create(self, spec: dict, key: str) -> Job:
        with self._lock:
            job = Job(id=f"{self._prefix}-{next(self._ids):06d}", key=key, spec=spec)
            self._jobs[job.id] = job
        # Published outside the table lock: the record write is I/O, and
        # the job is already reachable by id.
        self.publish(job)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    # -- shared records (multi-process fallback) ---------------------------------

    def publish(self, job: Job) -> None:
        """Write ``job``'s shared record (atomic; no-op without a shared dir).

        Never raises: a sick shared directory must not fail the job it
        describes — siblings just see a stale (or missing) record.
        """
        if self._shared_dir is None:
            return
        doc = {
            "schema": JOB_RECORD_SCHEMA,
            "payload": job.status_payload(),
            "result_text": job.result_text,
        }
        try:
            self._shared_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self._shared_dir, prefix=".tmp-job-")
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, self._shared_dir / f"{job.id}.json")
        except OSError as exc:
            logger.warning("cannot publish job record for %s: %s", job.id, exc)

    def lookup_record(self, job_id: str) -> dict | None:
        """A sibling worker's record for ``job_id``, or None.

        Only consulted after :meth:`get` misses; returns the raw record
        dict (``payload`` + ``result_text``), never a live :class:`Job`.
        """
        if self._shared_dir is None or not _SAFE_JOB_ID.match(job_id):
            return None
        try:
            doc = json.loads((self._shared_dir / f"{job_id}.json").read_text())
        except (OSError, ValueError):
            return None
        if (
            isinstance(doc, dict)
            and doc.get("schema") == JOB_RECORD_SCHEMA
            and isinstance(doc.get("payload"), dict)
        ):
            return doc
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def counts(self) -> dict[str, int]:
        """Jobs per state (for ``/readyz`` and the metrics gauges)."""
        out = dict.fromkeys(JOB_STATES, 0)
        with self._lock:
            for job in self._jobs.values():
                out[job.state] += 1
        return out
