"""ServiceQueue: coalescing, saturation, warm cache, rate limiting, drain.

Everything here injects a fake executor — determinism comes from
Event-gated blocking, not sleeps — so the concurrency claims are proved,
not sampled.  Real pipeline execution is covered by the server tests.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ReproError, ServiceError, ServiceSaturatedError
from repro.parallel.cache import ResultCache
from repro.service import SERVICE_CACHE_SCHEMA, ServiceQueue, TokenBucket


def spec_for(seed: int) -> dict:
    """A valid job spec whose identity varies with ``seed``."""
    return {"kind": "detect", "benchmark": "NW", "seed": seed}


class GatedExecutor:
    """Counts executions and blocks each one until released."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.started = threading.Semaphore(0)
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, spec: dict) -> dict:
        with self._lock:
            self.calls += 1
        self.started.release()
        assert self.gate.wait(timeout=30.0), "gate never opened"
        return {"echo": spec["seed"]}


def make_queue(executor, **kw) -> ServiceQueue:
    kw.setdefault("workers", 2)
    kw.setdefault("capacity", 4)
    kw.setdefault("telemetry_enabled", False)
    return ServiceQueue(executor=executor, **kw)


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


class TestCoalescing:
    def test_identical_inflight_jobs_execute_once(self):
        """N identical concurrent submissions: one execution, N-1 coalesced,
        every job finishing with the same result bytes."""
        ex = GatedExecutor()
        q = make_queue(ex, workers=1)
        q.start()
        try:
            n = 6
            jobs = [q.submit(spec_for(0)) for _ in range(n)]
            ex.started.acquire(timeout=10)  # the primary is now running
            assert ex.calls == 1
            assert sum(1 for j in jobs if j.coalesced) == n - 1
            assert q.metrics.counters["service.jobs_coalesced"].value == n - 1

            ex.gate.set()
            wait_until(lambda: all(j.state == "done" for j in jobs))
            assert ex.calls == 1  # nothing executed after release either
            texts = {j.result_text for j in jobs}
            assert texts == {'{"echo":0}'}
            assert q.metrics.counters["service.jobs_done"].value == n
        finally:
            ex.gate.set()
            q.stop()

    def test_distinct_specs_do_not_coalesce(self):
        ex = GatedExecutor()
        ex.gate.set()
        q = make_queue(ex)
        q.start()
        try:
            a, b = q.submit(spec_for(1)), q.submit(spec_for(2))
            wait_until(lambda: a.state == "done" and b.state == "done")
            assert ex.calls == 2
            assert not a.coalesced and not b.coalesced
        finally:
            q.stop()

    def test_resubmit_after_completion_executes_again(self):
        """Coalescing is for *in-flight* jobs only (no cache configured)."""
        ex = GatedExecutor()
        ex.gate.set()
        q = make_queue(ex, workers=1)
        q.start()
        try:
            first = q.submit(spec_for(0))
            wait_until(lambda: first.state == "done")
            second = q.submit(spec_for(0))
            wait_until(lambda: second.state == "done")
            assert ex.calls == 2
            assert not second.coalesced
        finally:
            q.stop()


class TestSaturation:
    def test_full_queue_rejects_with_retry_after(self):
        ex = GatedExecutor()
        q = make_queue(ex, workers=1, capacity=2, retry_after_s=2.5)
        q.start()
        try:
            q.submit(spec_for(0))
            ex.started.acquire(timeout=10)  # worker busy on job 0
            q.submit(spec_for(1))
            q.submit(spec_for(2))           # queue now full (capacity 2)
            with pytest.raises(ServiceSaturatedError) as exc_info:
                q.submit(spec_for(3))
            assert exc_info.value.retry_after == 2.5
            assert q.metrics.counters["service.jobs_rejected"].value == 1
            # Identical duplicates still coalesce even at saturation: they
            # attach to in-flight work instead of taking a queue slot.
            dup = q.submit(spec_for(1))
            assert dup.coalesced
        finally:
            ex.gate.set()
            q.stop()

    def test_rejected_job_is_marked_failed(self):
        ex = GatedExecutor()
        q = make_queue(ex, workers=1, capacity=1)
        q.start()
        try:
            q.submit(spec_for(0))
            ex.started.acquire(timeout=10)
            q.submit(spec_for(1))
            with pytest.raises(ServiceSaturatedError):
                q.submit(spec_for(2))
            rejected = q.store.get("job-000003")
            assert rejected.state == "failed"
            assert "queue full" in rejected.error
        finally:
            ex.gate.set()
            q.stop()


class TestFailures:
    def test_typed_error_fails_job_and_followers(self):
        ex = GatedExecutor()

        def failing(spec: dict) -> dict:
            ex(spec)
            raise ReproError("profiling exploded")

        q = make_queue(failing, workers=1)
        q.start()
        try:
            a = q.submit(spec_for(0))
            ex.started.acquire(timeout=10)
            b = q.submit(spec_for(0))  # coalesces onto the doomed primary
            ex.gate.set()
            wait_until(lambda: a.state == "failed" and b.state == "failed")
            assert "profiling exploded" in a.error
            assert b.error == a.error
            assert q.metrics.counters["service.jobs_failed"].value == 2
        finally:
            ex.gate.set()
            q.stop()

    def test_crash_does_not_kill_the_worker(self):
        def crashing(spec: dict) -> dict:
            if spec["seed"] == 0:
                raise RuntimeError("untyped bug")
            return {"ok": spec["seed"]}

        q = make_queue(crashing, workers=1)
        q.start()
        try:
            bad = q.submit(spec_for(0))
            good = q.submit(spec_for(1))
            wait_until(lambda: bad.state == "failed" and good.state == "done")
            assert "untyped bug" in bad.error
        finally:
            q.stop()

    def test_malformed_spec_rejected_before_queueing(self):
        q = make_queue(GatedExecutor())
        with pytest.raises(ServiceError):
            q.submit({"kind": "nonsense"})
        assert len(q.store) == 0


class TestWarmCache:
    def test_second_submission_hits_cache_without_executing(self, tmp_path):
        ex = GatedExecutor()
        ex.gate.set()
        cache = ResultCache(tmp_path / "c", schema=SERVICE_CACHE_SCHEMA)
        q = make_queue(ex, cache=cache)
        q.start()
        try:
            first = q.submit(spec_for(0))
            wait_until(lambda: first.state == "done")
            warm = q.submit(spec_for(0))
            assert warm.state == "done"          # instantly, no queue trip
            assert warm.cache_hit
            assert warm.result_text == first.result_text
            assert ex.calls == 1
            assert q.metrics.counters["service.cache_hits"].value == 1
        finally:
            q.stop()

    def test_campaign_entries_are_invisible_to_the_service(self, tmp_path):
        """Same directory, different schema: the service never replays a
        campaign shard envelope (and vice versa)."""
        ex = GatedExecutor()
        ex.gate.set()
        shard_cache = ResultCache(tmp_path / "c")  # campaign schema
        service_cache = ResultCache(tmp_path / "c", schema=SERVICE_CACHE_SCHEMA)
        q = make_queue(ex, cache=service_cache)
        from repro.service import job_key

        shard_cache.put(job_key(spec_for(0)), {"poison": True})
        q.start()
        try:
            job = q.submit(spec_for(0))
            wait_until(lambda: job.state == "done")
            assert not job.cache_hit
            assert ex.calls == 1
        finally:
            q.stop()



class TestSharedCacheStorm:
    def test_storm_across_two_queues_executes_once(self, tmp_path):
        """The N-worker storm above the cache layer: two queues (one per
        worker process in ``serve --workers 2``) share one cache directory
        and one counting executor; 8 identical submissions, 4 to each,
        execute once and every job reads the same bytes."""
        ex = GatedExecutor()
        queues = [
            make_queue(ex, workers=1, cache=ResultCache(
                tmp_path / "c", schema=SERVICE_CACHE_SCHEMA))
            for _ in range(2)
        ]
        for q in queues:
            q.start()
        try:
            jobs = [queues[i % 2].submit(spec_for(0)) for i in range(8)]
            assert ex.started.acquire(timeout=10)  # one primary executes
            primaries = [j for j in jobs if not j.coalesced]
            assert len(primaries) == 2
            wait_until(lambda: all(p.state == "running" for p in primaries))
            ex.gate.set()
            wait_until(lambda: all(j.state == "done" for j in jobs))
            assert ex.calls == 1
            assert len({j.result_text for j in jobs}) == 1
            assert jobs[0].result_text == '{"echo":0}'

            def total(name):
                return sum(q.metrics.counter(name).value for q in queues)

            assert total("service.single_flight_executed") == 1
            assert total("service.single_flight_followed") == 1
            assert total("service.jobs_coalesced") == 6
        finally:
            ex.gate.set()
            for q in queues:
                q.stop()

class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3, clock=lambda: now[0])
        assert [bucket.try_acquire() for _ in range(3)] == [True] * 3
        assert not bucket.try_acquire()
        assert bucket.retry_after == pytest.approx(0.5)
        now[0] += 0.5  # one token refilled at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2, clock=lambda: now[0])
        now[0] += 100.0
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ServiceError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ServiceError):
            TokenBucket(rate=1, burst=0)


class TestDrain:
    def test_drain_finishes_accepted_work_and_refuses_new(self):
        ex = GatedExecutor()
        q = make_queue(ex, workers=1, capacity=8)
        q.start()
        jobs = [q.submit(spec_for(i)) for i in range(3)]
        ex.started.acquire(timeout=10)
        ex.gate.set()
        q.drain()
        assert all(j.state == "done" for j in jobs)
        assert q.draining
        with pytest.raises(ServiceError, match="draining"):
            q.submit(spec_for(9))
