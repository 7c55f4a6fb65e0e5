"""Append-only JSONL logs: one writer, one reader, one torn-tail policy.

Every on-disk record stream in the package (monitor events, the fleet
wire, the service access and span logs, the campaign journal, and a
telemetry artifact's ``spans.jsonl``/``timeline.jsonl``) is written by
:class:`JsonlLog` and read by :func:`read_jsonl`.  The writer appends
each record as one flushed ``line + "\\n"``, so a crash tears at most
the final line, which then lacks its newline.  The reader drops that
fragment (the record was never acknowledged), a writer reopening the
file for append truncates it first, and any other line that is not
JSON raises the caller's typed error naming ``path:line``.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import IO, Iterator

from repro.errors import ReproError

__all__ = ["JsonlLog", "read_jsonl", "segments"]

logger = logging.getLogger(__name__)


def segments(path: str | os.PathLike) -> list[Path]:
    """A rotated log's files, oldest first: ``[<path>.N, ..., <path>.1, <path>]``."""
    path = Path(path)
    rotated: list[Path] = []
    while (seg := path.with_name(f"{path.name}.{len(rotated) + 1}")).exists():
        rotated.append(seg)
    return rotated[::-1] + [path]


def _repair_tail(path: Path) -> None:
    """Truncate an unterminated final fragment back to the last newline."""
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        return
    with fh:
        end = pos = fh.seek(0, os.SEEK_END)
        while pos > 0:
            step = min(4096, pos)
            fh.seek(pos - step)
            chunk = fh.read(step)
            if chunk.endswith(b"\n") and pos == end:
                return
            if (cut := chunk.rfind(b"\n")) >= 0:
                pos -= step - cut - 1
                break
            pos -= step
        fh.truncate(pos)
    if pos < end:
        logger.warning("truncated torn final line of %s (%d bytes)", path, end - pos)


class JsonlLog:
    """Thread-safe JSONL writer: one flushed line per record.

    ``resume=False`` starts a fresh file and deletes rotated segments of
    an earlier run; ``resume=True`` appends after repairing a torn tail.
    With ``max_bytes`` the live file rolls to ``<path>.1`` (older
    segments shift up, at most ``keep_segments`` kept) once a write
    crosses the cap.  ``fsync_interval_s`` adds a disk barrier at most
    once per interval and at close (0: every record; None: never).
    Bad settings and open failures raise ``error``.  Writes after
    :meth:`close` are dropped: owners close logs while late writers may
    still be finishing.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        error: type[ReproError] = ReproError,
        resume: bool = False,
        max_bytes: int | None = None,
        keep_segments: int = 3,
        fsync_interval_s: float | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise error(f"max_bytes must be >= 1, got {max_bytes}")
        if keep_segments < 1:
            raise error(f"keep_segments must be >= 1, got {keep_segments}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.keep_segments = keep_segments
        self._fsync_interval_s = fsync_interval_s
        self._last_fsync = float("-inf")
        self._lock = threading.Lock()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if resume:
                _repair_tail(self.path)
            else:
                for seg in segments(self.path)[:-1]:
                    seg.unlink()
            self._fh: IO[str] | None = self.path.open(
                "a" if resume else "w", encoding="utf-8"
            )
        except OSError as exc:
            raise error(f"cannot open {self.path}: {exc}") from exc

    @property
    def closed(self) -> bool:
        return self._fh is None

    def append(self, record: object) -> None:
        """Append one record as compact, key-sorted JSON."""
        self.append_line(json.dumps(record, sort_keys=True, separators=(",", ":")))

    def append_line(self, line: str) -> None:
        """Append one pre-encoded record (JSON text without a newline)."""
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(line + "\n")
            self._fh.flush()
            if self._fsync_interval_s is not None:
                now = time.monotonic()
                if now - self._last_fsync >= self._fsync_interval_s:
                    os.fsync(self._fh.fileno())
                    self._last_fsync = now
            if self.max_bytes is not None and self._fh.tell() >= self.max_bytes:
                self._fh.close()
                name = self.path.name
                for i in range(self.keep_segments, 0, -1):
                    older = self.path.with_name(f"{name}.{i - 1}" if i > 1 else name)
                    if older.exists():
                        older.replace(self.path.with_name(f"{name}.{i}"))
                self._fh = self.path.open("w", encoding="utf-8")

    def close(self) -> None:
        with self._lock:
            fh, self._fh = self._fh, None
            if fh is None:
                return
            try:
                if self._fsync_interval_s is not None:
                    fh.flush()
                    os.fsync(fh.fileno())
            finally:
                fh.close()

    def __enter__(self) -> JsonlLog:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(
    path: str | os.PathLike, error: type[ReproError] = ReproError
) -> Iterator[tuple[str, object]]:
    """Stream a log's records, rotated segments first, as ``(where, record)``.

    ``where`` is ``"<file>:<line>"`` for the caller's own schema errors.
    An unterminated final line is a torn write and is dropped; any other
    line that is not JSON, or a missing or unreadable file, raises ``error``.
    """
    for seg in segments(path):
        try:
            fh = open(seg, "rb")
        except FileNotFoundError:
            raise error(f"cannot read {seg}: not found") from None
        except OSError as exc:
            raise error(f"cannot read {seg}: {exc}") from exc
        with fh:
            for lineno, raw in enumerate(fh, start=1):
                where = f"{seg}:{lineno}"
                if not raw.endswith(b"\n"):
                    logger.warning("dropping torn final line %s", where)
                    break
                try:
                    record = json.loads(raw)
                except ValueError as exc:
                    raise error(f"{where}: malformed JSON, log is corrupt: {exc}") from None
                yield where, record
