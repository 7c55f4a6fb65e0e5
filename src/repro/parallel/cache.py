"""Content-addressed on-disk cache for campaign shard results.

Each entry is one shard's canonical-JSON payload, keyed by the SHA-256 of
``{spec, campaign_seed, package version}`` — if any input that could
change the result changes, the key changes, so entries never need
invalidation.  A warm cache makes re-running an unchanged campaign
near-instant, and because payloads are stored as the same canonical JSON
the runner emits for fresh results, a cache hit is *bytes-identical* to a
recomputation (asserted by the determinism tests).

Failure policy: a cache must never change results or crash a campaign.
Unreadable or corrupt entries count as misses (and are deleted when
possible); an unwritable cache directory degrades the cache to disabled
with a logged warning.  Only a caller explicitly *asking* for an
impossible directory (``--cache-dir`` pointing at a file) gets a
:class:`~repro.errors.CacheError`.

The same policy covers *concurrent* access: several campaigns (or the
profiling service's worker threads) may share one cache directory, so an
entry can be evicted, replaced, or half-classified by a sibling process
between any two filesystem operations here.  Every read, evict, and clear
path therefore tolerates ``FileNotFoundError`` (and the wider ``OSError``
family) by degrading to a miss — never by raising — which the
two-process stress test in ``tests/parallel/test_cache.py`` hammers.

Sustained I/O failure (dying disk, ENOSPC, yanked network mount) is a
step beyond the occasional lost entry: a :class:`CircuitBreaker` counts
consecutive I/O errors and, once tripped, routes traffic to an in-memory
overlay instead of the filesystem.  Results stay correct and available
for the life of the process; only cross-process sharing is lost while the
circuit is open.  ``FileNotFoundError`` on read is a *healthy* miss and
never feeds the breaker.  See ``docs/robustness.md``.

**Cross-process single-flight**: every service job executes through
:meth:`ResultCache.single_flight`, at any worker count, and the
service's worker processes share one cache directory, so a storm of
identical job specs executes *once fleet-wide*.  Per key, an advisory
claim file decides: the first process to ``O_CREAT|O_EXCL`` the claim
file computes and publishes the entry; everyone else polls the cache
until the entry lands.  Claims left by a
worker that died mid-execution are detected (owner pid no longer alive,
or claim older than ``stale_s``) and *stolen* — the stealer unlinks the
claim and competes to re-claim — so a crash never wedges followers.
Every failure mode fails *open* to local computation: dedup is an
optimization, correctness never depends on the claim protocol working.
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import tempfile
import time

from repro.errors import CacheError
from repro.resilience import CircuitBreaker

__all__ = ["ResultCache", "default_cache_dir", "CACHE_SCHEMA", "CLAIM_STALE_S"]

logger = logging.getLogger(__name__)

#: Envelope schema identifier for cache entries.
CACHE_SCHEMA = "drbw-shard-result"
CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "DRBW_CACHE_DIR"

#: Orphaned ``.tmp-*`` files older than this are swept on cache open.
#: Young ones may belong to a live writer mid-``os.replace`` and are kept.
ORPHAN_MAX_AGE_S = 3600.0

#: A single-flight claim whose owner cannot be proven dead is still
#: presumed stale (and stolen) once it is this old — the backstop for
#: owners on another host or behind pid reuse.
CLAIM_STALE_S = 600.0


def default_cache_dir() -> pathlib.Path:
    """``$DRBW_CACHE_DIR``, else ``$XDG_CACHE_HOME/drbw``, else ``~/.cache/drbw``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "drbw"


class ResultCache:
    """Directory of ``<key>.json`` shard-result envelopes.

    ``root=None`` uses :func:`default_cache_dir`; ``enabled=False`` turns
    every operation into a no-op (the ``--no-cache`` path), which keeps
    call sites branch-free.  ``schema`` names the envelope family stored
    here — campaign shards use the default, the profiling service stores
    job results under its own schema so the two can never replay each
    other's entries even when pointed at the same directory.

    ``breaker`` guards the disk: after ``failure_threshold`` consecutive
    I/O errors the cache falls back to a process-local in-memory overlay
    (checked before disk on every ``get``) until the breaker half-opens
    and a probe succeeds.  Fault-injection subclasses override the two
    ``_read_entry_text`` / ``_write_entry_text`` hooks so injected I/O
    errors are indistinguishable from real ones to the breaker.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        enabled: bool = True,
        schema: str = CACHE_SCHEMA,
        *,
        breaker: CircuitBreaker | None = None,
        orphan_max_age_s: float = ORPHAN_MAX_AGE_S,
    ) -> None:
        self.enabled = enabled
        self.schema = schema
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.io_errors = 0
        self.fallback_puts = 0
        self.fallback_hits = 0
        self.orphans_swept = 0
        self.claims_stolen = 0
        self._memory: dict[str, dict] = {}
        if not enabled:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            if root is not None:
                raise CacheError(
                    f"cannot create cache directory {self.root}: {exc}"
                ) from exc
            logger.warning("disabling result cache (%s unusable: %s)", self.root, exc)
            self.enabled = False
            return
        self._sweep_orphans(orphan_max_age_s)

    def path_for(self, key: str) -> pathlib.Path:
        """Location of one entry (two-level fan-out keeps directories small)."""
        return self.root / key[:2] / f"{key}.json"

    # -- raw I/O hooks (overridden by fault-injection subclasses) ---------------

    def _read_entry_text(self, path: pathlib.Path) -> str:
        return path.read_text()

    def _write_entry_text(self, path: pathlib.Path, text: str) -> None:
        """Atomically materialize ``text`` at ``path`` (tmp file + rename)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    # -- public API -------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The cached payload for ``key``, or ``None`` on a miss.

        Any defect — unreadable file, a file evicted by a concurrent
        reader between our existence check and read, non-JSON bytes,
        wrong schema, key mismatch — is a miss; broken entries are
        removed so they cannot shadow a future write.
        """
        if not self.enabled:
            return None
        hit = self._memory.get(key)
        if hit is not None:
            self.hits += 1
            self.fallback_hits += 1
            return hit
        if not self.breaker.allow():
            # Circuit open: don't touch the sick filesystem at all.
            self.misses += 1
            return None
        path = self.path_for(key)
        try:
            text = self._read_entry_text(path)
        except FileNotFoundError:
            # The common concurrent case: a sibling evicted (or has not
            # yet written) this entry.  A plain miss, no log noise —
            # and a *healthy* filesystem answer, so it closes the
            # breaker's half-open probe rather than feeding it.
            self.breaker.record_success()
            self.misses += 1
            return None
        except OSError as exc:
            self.io_errors += 1
            self.breaker.record_failure()
            logger.warning("cache read failed for %s: %s", path, exc)
            self.misses += 1
            return None
        self.breaker.record_success()
        try:
            envelope = json.loads(text)
            if (
                not isinstance(envelope, dict)
                or envelope.get("schema") != self.schema
                or envelope.get("schema_version") != CACHE_SCHEMA_VERSION
                or envelope.get("key") != key
                or not isinstance(envelope.get("payload"), dict)
            ):
                raise ValueError("bad envelope")
        except ValueError:
            # Corruption is a *content* defect, not an I/O failure — the
            # disk answered fine — so it evicts without tripping the breaker.
            logger.warning("evicting corrupt cache entry %s", path)
            self._evict(path)
            self.misses += 1
            return None
        self.hits += 1
        return envelope["payload"]

    def put(self, key: str, payload: dict) -> None:
        """Store one payload atomically (tmp file + rename).

        Write failures are logged and swallowed — a full disk must not
        fail the campaign whose results it was merely memoizing — but
        they feed the circuit breaker, and the payload lands in the
        in-memory overlay so this process can still re-read it.
        """
        if not self.enabled:
            return
        if not self.breaker.allow():
            self.fallback_puts += 1
            self._memory[key] = payload
            return
        path = self.path_for(key)
        envelope = {
            "schema": self.schema,
            "schema_version": CACHE_SCHEMA_VERSION,
            "key": key,
            "payload": payload,
        }
        text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        try:
            self._write_entry_text(path, text)
        except OSError as exc:
            self.io_errors += 1
            self.breaker.record_failure()
            logger.warning("cache write failed for %s: %s", path, exc)
            self.fallback_puts += 1
            self._memory[key] = payload
            return
        self.breaker.record_success()

    # -- cross-process single-flight --------------------------------------------

    def claim_path_for(self, key: str) -> pathlib.Path:
        """Location of one key's advisory claim file (next to its entry)."""
        return self.root / key[:2] / f"{key}.claim"

    def try_claim(self, key: str) -> bool:
        """Atomically claim ``key`` for execution; True when we own it.

        A disabled cache (or a disk too sick to create the claim file)
        answers True: with no shared medium there is nobody to defer to,
        and computing locally is always correct.
        """
        if not self.enabled:
            return True
        path = self.claim_path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError as exc:
            logger.warning("cannot create claim %s (%s); computing locally",
                           path, exc)
            return True
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps({"pid": os.getpid(), "host": os.uname().nodename}))
        except OSError:
            pass  # an empty claim still serializes; liveness falls back to age
        return True

    def release_claim(self, key: str) -> None:
        """Remove our claim on ``key`` (idempotent, never raises)."""
        if not self.enabled:
            return
        try:
            self.claim_path_for(key).unlink()
        except OSError:
            pass

    def _claim_is_stale(self, path: pathlib.Path, stale_s: float) -> bool:
        """True when the claim's owner is provably dead or the claim too old.

        Owner liveness is a same-host pid probe (``os.kill(pid, 0)``);
        claims from another host, or whose body is empty or unparsable,
        fall back to the age test alone.  A claim is created empty and
        written after, so a body that does not parse may be one its live
        owner is writing right now.
        """
        try:
            text = path.read_text()
        except OSError:
            return False  # vanished (owner finished) — not stale, just gone
        owner_alive = None
        try:
            body = json.loads(text)
            pid = int(body["pid"])
            same_host = body.get("host") == os.uname().nodename
        except (ValueError, KeyError, TypeError):
            same_host = False  # owner unknown: only age can prove it gone
        if same_host:
            try:
                os.kill(pid, 0)
                owner_alive = True
            except ProcessLookupError:
                return True
            except OSError:
                owner_alive = True  # EPERM: alive under another uid
        if owner_alive:
            return False  # a live local owner is never stolen by age
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return False
        return age >= stale_s

    def _steal_claim(self, path: pathlib.Path, expected_mtime_ns: int) -> None:
        """Unlink a stale claim, but only the exact file we judged stale.

        The mtime guard narrows the window where a freshly re-created
        claim (new owner) could be collateral damage; a misfire costs a
        duplicate execution, never a wrong result.
        """
        try:
            if path.stat().st_mtime_ns != expected_mtime_ns:
                return
            path.unlink()
        except OSError:
            return
        self.claims_stolen += 1
        logger.warning("stole stale single-flight claim %s", path)

    def single_flight(
        self,
        key: str,
        compute,
        *,
        stale_s: float = CLAIM_STALE_S,
        poll_s: float = 0.05,
        timeout_s: float = 120.0,
    ) -> tuple[dict, bool]:
        """Execute ``compute()`` for ``key`` at most once across processes.

        Returns ``(payload, executed_here)``.  Each turn claims, then
        reads the entry once (claiming first, so a sibling cannot publish
        and release between our miss and our claim): an entry is
        returned; a winner finding none computes, publishes it with
        :meth:`put`, and releases the claim.  Losers poll until the
        entry appears or the claim is released or stolen.

        Fail-open contract: a disabled cache computes immediately; a
        follower that outwaits ``timeout_s`` (publisher wedged, or its
        entry lost to a degraded disk) computes locally.  Duplicate work
        is the worst case, never a missing or non-canonical result.
        """
        if not self.enabled:
            return compute(), True
        deadline = time.monotonic() + timeout_s
        while True:
            claimed = self.try_claim(key)
            try:
                cached = self.get(key)
                if cached is not None:
                    return cached, False
                if claimed:
                    payload = compute()
                    self.put(key, payload)
                    return payload, True
            finally:
                if claimed:
                    self.release_claim(key)
            claim = self.claim_path_for(key)
            try:
                st = claim.stat()
            except OSError:
                continue  # claim released between our attempt and now: retry
            if self._claim_is_stale(claim, stale_s):
                self._steal_claim(claim, st.st_mtime_ns)
                continue
            if time.monotonic() >= deadline:
                logger.warning(
                    "single-flight wait for %s exceeded %gs; computing locally",
                    key, timeout_s,
                )
                payload = compute()
                self.put(key, payload)
                return payload, True
            time.sleep(poll_s)

    def _evict(self, path: pathlib.Path) -> None:
        try:
            path.unlink()
        except FileNotFoundError:
            # A concurrent reader already evicted it — same outcome.
            pass
        except OSError:
            return
        else:
            self.evictions += 1

    def _sweep_orphans(self, max_age_s: float) -> None:
        """Remove ``.tmp-*`` files stranded by a writer that died between
        ``mkstemp`` and ``os.replace``.  Only files older than ``max_age_s``
        go — a young temp file may belong to a live concurrent writer."""
        now = time.time()
        try:
            orphans = list(self.root.glob("*/.tmp-*.json"))
        except OSError:
            return
        swept = 0
        for orphan in orphans:
            try:
                if now - orphan.stat().st_mtime < max_age_s:
                    continue
                orphan.unlink()
            except OSError:
                continue
            swept += 1
        self.orphans_swept += swept
        if swept:
            logger.info(
                "swept %d orphaned cache temp file(s) under %s",
                swept, self.root,
            )

    def clear(self) -> int:
        """Remove every entry; returns the number removed (test helper)."""
        self._memory.clear()
        removed = 0
        try:
            entries = list(self.root.glob("*/*.json"))
        except OSError:
            return 0
        for entry in entries:
            try:
                entry.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    @property
    def degraded(self) -> bool:
        """True while the breaker is not closed (disk considered sick)."""
        return self.enabled and self.breaker.state != "closed"

    @property
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
