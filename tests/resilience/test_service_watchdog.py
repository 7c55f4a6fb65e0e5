"""The service watchdog: hung jobs, requeue, worker restarts, degraded state.

Deadlines run on an injectable clock, so expiry is a test-controlled step
rather than a wall-clock sleep; the watchdog thread itself patrols on a
tight real interval (10ms here) so passes happen promptly.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.parallel.cache import ResultCache
from repro.resilience import CircuitBreaker
from repro.service import SERVICE_CACHE_SCHEMA, ServiceQueue, ServiceServer


def spec_for(seed: int) -> dict:
    return {"kind": "detect", "benchmark": "NW", "seed": seed}


def counter(q: ServiceQueue, name: str) -> int:
    c = q.metrics.counters.get(name)
    return c.value if c is not None else 0


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


class HangingExecutor:
    """Hangs the first ``hang_first`` calls on a gate; echoes afterwards."""

    def __init__(self, hang_first: int = 1) -> None:
        self.gate = threading.Event()
        self.hung = threading.Event()
        self.hang_first = hang_first
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, spec: dict) -> dict:
        with self._lock:
            self.calls += 1
            n = self.calls
        if n <= self.hang_first:
            self.hung.set()
            self.gate.wait(timeout=30.0)
            return {"late": n}  # must be discarded if the watchdog ruled
        return {"echo": spec["seed"]}


def make_queue(executor, **kw) -> ServiceQueue:
    kw.setdefault("workers", 1)
    kw.setdefault("capacity", 8)
    kw.setdefault("telemetry_enabled", False)
    kw.setdefault("job_timeout_s", 5.0)
    kw.setdefault("watchdog_interval_s", 0.01)
    return ServiceQueue(executor=executor, **kw)


class TestHungJobs:
    def test_hung_job_fails_and_the_queue_keeps_serving(self):
        now = [0.0]
        ex = HangingExecutor(hang_first=1)
        q = make_queue(ex, clock=lambda: now[0])
        q.start()
        try:
            stuck = q.submit(spec_for(666))
            assert ex.hung.wait(timeout=10.0)
            now[0] = 6.0  # past the 5s deadline; the watchdog rules
            wait_until(lambda: stuck.state == "failed")
            assert "DeadlineExceededError" in (stuck.error or "")
            assert counter(q, "service.jobs_timed_out") == 1
            assert counter(q, "service.workers_restarted") >= 1

            # The single-worker pool was restored: new jobs still run.
            ok = q.submit(spec_for(1))
            wait_until(lambda: ok.state == "done")
            assert ok.result_text == '{"echo":1}'

            # The stuck executor finally returns — its result is discarded,
            # not written over the watchdog's verdict.
            ex.gate.set()
            wait_until(
                lambda: counter(q, "service.results_abandoned") == 1
            )
            assert stuck.state == "failed"
        finally:
            ex.gate.set()
            q.stop()

    def test_followers_fail_with_the_hung_primary(self):
        now = [0.0]
        ex = HangingExecutor(hang_first=1)
        q = make_queue(ex, clock=lambda: now[0])
        q.start()
        try:
            primary = q.submit(spec_for(666))
            assert ex.hung.wait(timeout=10.0)
            follower = q.submit(spec_for(666))
            assert follower.coalesced
            now[0] = 6.0
            wait_until(lambda: follower.state == "failed")
            assert "DeadlineExceededError" in (follower.error or "")
            assert primary.state == "failed"
        finally:
            ex.gate.set()
            q.stop()

    def test_requeued_attempt_succeeds(self):
        now = [0.0]
        ex = HangingExecutor(hang_first=1)
        q = make_queue(ex, clock=lambda: now[0], job_max_attempts=2)
        q.start()
        try:
            job = q.submit(spec_for(7))
            assert ex.hung.wait(timeout=10.0)
            now[0] = 6.0  # attempt 1 expires -> requeue
            wait_until(lambda: job.state == "done")
            assert job.attempts == 2
            assert job.result_text == '{"echo":7}'
            assert counter(q, "service.jobs_requeued") == 1
            assert "attempts" in job.status_payload()  # surfaced to clients
        finally:
            ex.gate.set()
            q.stop()

    def test_requeued_attempt_does_not_wait_on_its_own_claim(self, tmp_path):
        """Regression: the stuck attempt's zombie thread still holds the
        key's single-flight claim, under this live pid, so nothing would
        steal it; the retry must not poll it out until the claim timeout."""
        now = [0.0]
        ex = HangingExecutor(hang_first=1)
        cache = ResultCache(tmp_path / "c", schema=SERVICE_CACHE_SCHEMA)
        q = make_queue(ex, clock=lambda: now[0], job_max_attempts=2,
                       cache=cache)
        q.start()
        try:
            job = q.submit(spec_for(7))
            assert ex.hung.wait(timeout=10.0)
            t0 = time.monotonic()
            now[0] = 6.0  # attempt 1 expires -> requeue
            wait_until(lambda: job.state == "done", timeout=5.0)
            assert time.monotonic() - t0 < 1.0
            assert job.attempts == 2
            assert job.result_text == '{"echo":7}'
            assert counter(q, "service.jobs_requeued") == 1
        finally:
            ex.gate.set()
            q.stop()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_worker_thread_is_replaced(self):
        class Bomb:
            def __init__(self) -> None:
                self.armed = True

            def __call__(self, spec: dict) -> dict:
                if self.armed:
                    self.armed = False
                    raise SystemExit(1)  # BaseException: kills the thread
                return {"echo": spec["seed"]}

        ex = Bomb()
        q = make_queue(ex)
        q.start()
        try:
            q.submit(spec_for(1))
            wait_until(
                lambda: counter(q, "service.workers_restarted") >= 1
            )
            ok = q.submit(spec_for(2))
            wait_until(lambda: ok.state == "done")
            assert ok.result_text == '{"echo":2}'
        finally:
            q.stop()


class TestDegradedHealth:
    def test_watchdog_incidents_degrade_then_age_out(self):
        now = [0.0]
        ex = HangingExecutor(hang_first=1)
        q = make_queue(ex, clock=lambda: now[0], degraded_window_s=30.0)
        q.start()
        try:
            assert q.health() == {"state": "ready", "reasons": []}
            stuck = q.submit(spec_for(666))
            assert ex.hung.wait(timeout=10.0)
            now[0] = 6.0
            wait_until(lambda: stuck.state == "failed")
            health = q.health()
            assert health["state"] == "degraded"
            assert any("incident" in r for r in health["reasons"])
            now[0] = 6.0 + 31.0  # incidents age out of the window
            assert q.health()["state"] == "ready"
        finally:
            ex.gate.set()
            q.stop()

    def test_open_cache_circuit_degrades_health(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=1)
        cache = ResultCache(tmp_path / "c", breaker=breaker)
        q = ServiceQueue(
            executor=lambda spec: {"echo": spec["seed"]},
            workers=1, telemetry_enabled=False, cache=cache,
        )
        assert q.health()["state"] == "ready"
        breaker.record_failure()
        health = q.health()
        assert health["state"] == "degraded"
        assert "cache circuit open" in health["reasons"]


class TestReadyzDegraded:
    def test_readyz_distinguishes_degraded_from_unready(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=1)
        cache = ResultCache(tmp_path / "c", breaker=breaker)
        q = ServiceQueue(
            executor=lambda spec: {"echo": spec["seed"]},
            workers=1, telemetry_enabled=False, cache=cache,
        )
        server = ServiceServer(q, port=0)
        server.start()
        try:
            def readyz():
                with urllib.request.urlopen(f"{server.url}/readyz") as resp:
                    return resp.status, json.loads(resp.read())

            status, body = readyz()
            assert status == 200 and body["state"] == "ready"

            breaker.record_failure()  # cache trouble: degraded, still 200
            status, body = readyz()
            assert status == 200
            assert body["ready"] is True
            assert body["state"] == "degraded"
            assert "cache circuit open" in body["reasons"]

            breaker.record_success()  # recovered
            status, body = readyz()
            assert status == 200 and body["state"] == "ready"

            q.drain()  # unready is a hard 503, unlike degraded
            with pytest.raises(urllib.error.HTTPError) as err:
                readyz()
            assert err.value.code == 503
        finally:
            server.stop()
