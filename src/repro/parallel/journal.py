"""Write-ahead checkpoint journal for campaign runs.

A :class:`CampaignJournal` is an append-only JSONL file: one header line
identifying the campaign, then one line per *completed* shard carrying
its cache key, config hash, spec-order sequence number, and canonical
payload.  Lines are flushed as each shard finishes, so after a crash or
SIGINT the journal holds exactly the work that completed — and
``drbw campaign --resume <journal>`` replays those shards from the
journal instead of re-executing them.

Recovery rules, in the spirit of classic WAL recovery:

* the header must match the resuming campaign (same ``campaign_seed``) —
  resuming under a different seed would splice together payloads from two
  different sample universes, so it is an error, not a warning;
* torn lines follow :mod:`repro.jsonl`: a torn final line (the shard
  never acknowledged completion) is dropped and truncated before the
  resumed run appends; corruption anywhere else is a hard error;
* unknown keys in a journal line are ignored and entries for shards the
  resuming campaign does not contain are simply never looked up — a
  journal is a cache with provenance, never an instruction stream.

Because entries carry the payload itself (canonical JSON, the same bytes
the result cache stores), a resumed run is byte-identical to an
uninterrupted one even if the result cache was lost, corrupted, or
disabled in between.
"""

from __future__ import annotations

import json
import logging
import os
import pathlib

from repro.errors import ParallelError
from repro.jsonl import JsonlLog, read_jsonl
from repro.parallel.seeding import canonical_json

__all__ = ["CampaignJournal", "JOURNAL_SCHEMA"]

logger = logging.getLogger(__name__)

JOURNAL_SCHEMA = "drbw-campaign-journal"
JOURNAL_SCHEMA_VERSION = 1

#: Every record is flushed to the OS, which survives the crashes and
#: SIGINTs campaigns actually see; the costlier fsync runs at most once
#: per interval plus once at close.
FSYNC_INTERVAL_S = 1.0


class CampaignJournal:
    """Append-only JSONL checkpoint of completed shards.

    ``resume=True`` loads any existing journal at ``path`` (validating its
    header) before appending; ``resume=False`` truncates and starts
    fresh.  :meth:`completed` answers "was this shard already done?" with
    its recorded payload; :meth:`record` checkpoints a newly finished
    shard and is idempotent per key.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        campaign_seed: int = 0,
        resume: bool = False,
    ) -> None:
        self.path = pathlib.Path(path)
        self.campaign_seed = int(campaign_seed)
        self._entries: dict[str, dict] = {}
        self.resumed_count = 0
        has_header = resume and self.path.exists() and self._load()
        self._log = JsonlLog(
            self.path,
            error=ParallelError,
            resume=resume,
            fsync_interval_s=FSYNC_INTERVAL_S,
        )
        if not has_header:
            self._write(
                canonical_json(
                    {
                        "schema": JOURNAL_SCHEMA,
                        "schema_version": JOURNAL_SCHEMA_VERSION,
                        "campaign_seed": self.campaign_seed,
                    }
                )
            )

    # -- recovery ---------------------------------------------------------------

    def _load(self) -> bool:
        """Load the journal's entries; False when it holds no header yet."""
        lines = read_jsonl(self.path, ParallelError)
        first = next(lines, None)
        if first is None:
            return False
        header = first[1]
        if (
            not isinstance(header, dict)
            or header.get("schema") != JOURNAL_SCHEMA
            or header.get("schema_version") != JOURNAL_SCHEMA_VERSION
        ):
            raise ParallelError(
                f"{self.path} is not a campaign journal (bad header schema)"
            )
        if header.get("campaign_seed") != self.campaign_seed:
            raise ParallelError(
                f"journal {self.path} was written by campaign_seed="
                f"{header.get('campaign_seed')}; cannot resume with "
                f"campaign_seed={self.campaign_seed}"
            )
        for where, entry in lines:
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("key"), str)
                or not isinstance(entry.get("payload"), dict)
                or not isinstance(entry.get("seq"), int)
            ):
                raise ParallelError(f"campaign journal {where} is corrupt: bad entry")
            self._entries[entry["key"]] = entry
        self.resumed_count = len(self._entries)
        return True

    # -- API --------------------------------------------------------------------

    def completed(self, key: str) -> dict | None:
        """The recorded entry for ``key`` (``{"seq", "key", ...}``), or None."""
        return self._entries.get(key)

    def record(
        self,
        seq: int,
        key: str,
        config_hash: str,
        payload: dict,
        payload_text: str | None = None,
    ) -> None:
        """Checkpoint one completed shard (idempotent per key, flushed).

        ``payload_text``, when the caller already holds the payload's
        canonical JSON, skips re-serializing it — the dominant cost of a
        checkpoint — while producing the exact same line bytes.
        """
        if key in self._entries:
            return
        entry = {"seq": seq, "key": key, "config_hash": config_hash, "payload": payload}
        self._entries[key] = entry
        if payload_text is None:
            self._write(canonical_json(entry))
        else:
            # Hand-assembled in canonical form (keys in sorted order,
            # compact separators) — byte-identical to canonical_json(entry).
            self._write(
                '{"config_hash":%s,"key":%s,"payload":%s,"seq":%d}'
                % (json.dumps(config_hash), json.dumps(key), payload_text, seq)
            )

    def _write(self, line: str) -> None:
        try:
            self._log.append_line(line)
        except OSError as exc:
            # A journal that cannot persist must not fail the campaign it
            # is checkpointing; it just stops being a recovery point.
            logger.warning("campaign journal write failed (%s); continuing", exc)

    def __len__(self) -> int:
        return len(self._entries)

    def close(self) -> None:
        try:
            self._log.close()
        except OSError:
            pass

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def merged_payload_lines(self) -> list[str]:
        """Every recorded payload as canonical JSON, in spec (seq) order.

        This is what ``drbw campaign --out`` writes — a deterministic
        byte stream for CI's ``cmp``, independent of completion order.
        """
        ordered = sorted(self._entries.values(), key=lambda e: e["seq"])
        return [canonical_json(e["payload"]) for e in ordered]
