"""Multi-process sharded serving (PR 10).

Four contracts, tested at the layer that owns each:

* **cross-process single-flight** — two real processes racing the same
  job key execute the payload exactly once, and both read byte-identical
  bytes (claim-file protocol on the shared ``ResultCache``);
* **stale-claim recovery** — a worker killed mid-execution (the
  ``InfraFaultPlan`` kill fault deciding an ``os._exit``) leaves a claim
  behind; a follower detects the dead owner and steals it, so the fleet
  never wedges on a crash;
* **byte identity across worker counts** — the same spec served by
  ``--workers 1``, ``2``, and ``4`` returns the same result bytes;
* **SIGTERM drain** — the supervisor forwards the signal, every worker
  drains, and the whole tree exits 0.

The worker-count and drain tests drive the real CLI in subprocesses —
the same path CI's ``mpserve-smoke`` exercises — because pre-fork
behavior (shared-port binding, signal forwarding, exit codes) only
exists in real processes.  Each drain follows a 200-request burst and
must finish within 30 s.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ServiceError
from repro.faults import InfraFaultPlan
from repro.service.jobstore import JobStore
from repro.parallel.cache import ResultCache
from repro.service import (
    SERVICE_CACHE_SCHEMA,
    ServiceQueue,
    ServiceSupervisor,
    WorkerConfig,
    job_key,
    normalize_job,
)
from repro.service.metricsagg import (
    merge_registry_dicts,
    read_snapshots,
    write_snapshot,
)
from repro.telemetry.metrics import MetricsRegistry

REPO_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

SPEC = {"kind": "detect", "benchmark": "NW", "seed": 42}

_CTX = multiprocessing.get_context("fork")


# ---------------------------------------------------------------------------
# Metrics snapshot merge
# ---------------------------------------------------------------------------

class TestMetricsMerge:
    def test_counters_gauges_histograms_sum(self, tmp_path):
        for worker, (jobs, depth, obs) in {
            "w0": (3, 2, [0.1, 0.2]),
            "w1": (5, 1, [0.4]),
        }.items():
            reg = MetricsRegistry()
            reg.counter("service.jobs_done").inc(jobs)
            reg.gauge("service.queue_depth").set(depth)
            h = reg.histogram("service.job_seconds", (0.25, 1.0))
            for v in obs:
                h.observe(v)
            write_snapshot(tmp_path, worker, {"drbw": reg})
        snaps = read_snapshots(tmp_path)
        assert [s["worker"] for s in snaps] == ["w0", "w1"]
        merged = merge_registry_dicts([s["registries"]["drbw"] for s in snaps])
        assert merged.counter("service.jobs_done").value == 8
        assert merged.gauge("service.queue_depth").value == 3
        hist = merged.histogram("service.job_seconds", (0.25, 1.0))
        assert hist.count == 3
        assert hist.counts == [2, 1, 0]
        assert hist.min == pytest.approx(0.1)
        assert hist.max == pytest.approx(0.4)

    def test_corrupt_snapshot_skipped(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        write_snapshot(tmp_path, "w0", {"drbw": reg})
        (tmp_path / "metrics-w1.json").write_text("{half a json")
        snaps = read_snapshots(tmp_path)
        assert len(snaps) == 1 and snaps[0]["worker"] == "w0"


# ---------------------------------------------------------------------------
# Shared job records: any worker answers for any job
# ---------------------------------------------------------------------------

class TestSharedJobRecords:
    def test_sibling_store_serves_published_record(self, tmp_path):
        accepting = JobStore(prefix="job-w0", shared_dir=tmp_path)
        sibling = JobStore(prefix="job-w1", shared_dir=tmp_path)
        job = accepting.create({"kind": "detect"}, key="k1")
        assert job.id.startswith("job-w0-")  # fleet-unique across workers
        record = sibling.lookup_record(job.id)
        assert record["payload"]["state"] == "queued"
        job.state = "done"
        job.result_text = '{"answer": 1}'
        accepting.publish(job)
        record = sibling.lookup_record(job.id)
        assert record["payload"]["state"] == "done"
        assert record["result_text"] == '{"answer": 1}'

    def test_sibling_record_is_terminal_once_owner_says_done(self, tmp_path):
        """The shared record is written *before* the owner's job turns
        terminal, so a status poll answering ``done`` is never followed by
        a sibling worker's stale ``409 job not finished``."""
        owner = JobStore(prefix="job-w0", shared_dir=tmp_path)
        sibling = JobStore(prefix="job-w1", shared_dir=tmp_path)
        publish = owner.publish

        def slow_publish(job):
            time.sleep(0.3)  # widen the window between flip and write
            publish(job)

        owner.publish = slow_publish
        queue = ServiceQueue(executor=lambda spec: {"answer": 1}, workers=1,
                             store=owner, telemetry_enabled=False).start()
        try:
            job = queue.submit(SPEC)
            deadline = time.monotonic() + 30
            while owner.get(job.id).status_payload()["state"] != "done":
                assert time.monotonic() < deadline, "job never finished"
                time.sleep(0.005)
            assert sibling.lookup_record(job.id)["payload"]["state"] == "done"
        finally:
            queue.drain()

    def test_lookup_rejects_traversal_and_unknown(self, tmp_path):
        store = JobStore(prefix="job-w0", shared_dir=tmp_path)
        assert store.lookup_record("../../etc/passwd") is None
        assert store.lookup_record("job-w9-000001") is None

    def test_no_shared_dir_is_a_noop(self):
        store = JobStore()
        job = store.create({"kind": "detect"}, key="k1")
        assert job.id == "job-000001"  # single-process ids are unchanged
        assert store.lookup_record(job.id) is None


# ---------------------------------------------------------------------------
# Claim protocol: two real processes, one execution
# ---------------------------------------------------------------------------

def _race_single_flight(root, key, barrier, marker_dir, out_path):
    """One racing process: compute writes a per-pid marker (counts runs)."""
    cache = ResultCache(root, schema=SERVICE_CACHE_SCHEMA)

    def compute() -> dict:
        (pathlib.Path(marker_dir) / f"ran-{os.getpid()}").write_text("x")
        time.sleep(0.2)  # hold the claim long enough that the race is real
        return {"answer": 17, "payload": "x" * 64}

    barrier.wait(timeout=30)
    payload, _ = cache.single_flight(key, compute, poll_s=0.01, timeout_s=30.0)
    pathlib.Path(out_path).write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":"))
    )


def _claim_and_die(root, key, barrier):
    """Take the claim, then die mid-execution the way a killed worker does:
    the InfraFaultPlan kill fault decides an ``os._exit`` with the claim
    still held."""
    cache = ResultCache(root, schema=SERVICE_CACHE_SCHEMA)
    assert cache.try_claim(key)
    plan = InfraFaultPlan(worker_kill_rate=1.0, seed=7)
    barrier.wait(timeout=30)
    if plan.kill_decision(key, attempt=1):
        os._exit(1)
    os._exit(0)  # pragma: no cover - rate 1.0 always kills


class TestCrossProcessSingleFlight:
    def test_two_processes_execute_exactly_once(self, tmp_path):
        key = job_key(normalize_job(SPEC))
        markers = tmp_path / "markers"
        markers.mkdir()
        barrier = _CTX.Barrier(2)
        outs = [tmp_path / f"out-{i}.json" for i in range(2)]
        procs = [
            _CTX.Process(
                target=_race_single_flight,
                args=(tmp_path / "cache", key, barrier, markers, out),
            )
            for out in outs
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert len(list(markers.iterdir())) == 1, "payload must execute once"
        blobs = [out.read_bytes() for out in outs]
        assert blobs[0] == blobs[1], "both processes must read identical bytes"
        # The winner released its claim; nothing is left to wedge on.
        cache = ResultCache(tmp_path / "cache", schema=SERVICE_CACHE_SCHEMA)
        assert not cache.claim_path_for(key).exists()
        assert cache.get(key) == {"answer": 17, "payload": "x" * 64}

    def test_stale_claim_from_killed_worker_is_stolen(self, tmp_path):
        key = job_key(normalize_job(SPEC))
        barrier = _CTX.Barrier(2)
        proc = _CTX.Process(
            target=_claim_and_die, args=(tmp_path / "cache", key, barrier)
        )
        proc.start()
        barrier.wait(timeout=30)
        proc.join(timeout=30)
        assert proc.exitcode == 1  # the kill fault fired mid-execution
        cache = ResultCache(tmp_path / "cache", schema=SERVICE_CACHE_SCHEMA)
        assert cache.claim_path_for(key).exists(), "dead worker left its claim"
        # A follower must not wait out stale_s: the owner pid is dead, so
        # the claim is stolen immediately and the job executes here.
        payload, executed = cache.single_flight(
            key, lambda: {"recovered": True}, poll_s=0.01,
            stale_s=3600.0, timeout_s=30.0,
        )
        assert executed and payload == {"recovered": True}
        assert cache.claims_stolen == 1
        assert not cache.claim_path_for(key).exists()

    def test_live_claim_is_not_stolen(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", schema=SERVICE_CACHE_SCHEMA)
        assert cache.try_claim("aa11")
        # Our own pid is alive, so the claim is honored regardless of age.
        assert not cache._claim_is_stale(cache.claim_path_for("aa11"), 0.0)
        assert not cache.try_claim("aa11")
        cache.release_claim("aa11")
        assert cache.try_claim("aa11")


# ---------------------------------------------------------------------------
# Real servers: byte identity across worker counts + SIGTERM drain
# ---------------------------------------------------------------------------

def _start_serve(tmp_path, workers: int, extra: list[str] | None = None):
    """Launch ``drbw serve`` in a subprocess; returns (proc, base_url)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--workers", str(workers), "--threads", "2",
            "--cache-dir", str(tmp_path / f"cache-w{workers}"),
            *(extra or []),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if "listening on" in line:
            url = line.split("listening on ", 1)[1].split()[0]
            return proc, url
        if proc.poll() is not None:
            break
        if not line:
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("serve did not report a listening address")


def _run_job(url: str, spec: dict, timeout: float = 120.0) -> bytes:
    """Submit one spec and return the finished job's exact result bytes."""
    req = urllib.request.Request(
        f"{url}/v1/jobs", data=json.dumps(spec).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        job = json.load(resp)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(
                f"{url}/v1/jobs/{job['id']}/result", timeout=30
            ) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            if exc.code != 409:
                raise
            time.sleep(0.25)
    raise AssertionError(f"job {job['id']} did not finish in {timeout}s")


def _healthz_burst(url: str, n: int = 200) -> None:
    """``n`` concurrent ``/healthz`` requests; their answers do not matter,
    only that the server still drains promptly after serving them."""

    def one(_):
        try:
            with urllib.request.urlopen(f"{url}/healthz", timeout=10) as resp:
                resp.read()
        except OSError:
            pass

    with ThreadPoolExecutor(max_workers=n) as pool:
        list(pool.map(one, range(n)))


class TestSharedPort:
    def test_workers_without_reuseport_is_a_clear_error(self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        supervisor = ServiceSupervisor(WorkerConfig(port=0, workers=2))
        with pytest.raises(ServiceError, match="SO_REUSEPORT"):
            supervisor.start()
        # The supervisor's temporary shared directories are gone too.
        assert not os.path.exists(supervisor.cfg.jobs_dir)

    def test_occupied_port_fails_before_forking(self):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            supervisor = ServiceSupervisor(WorkerConfig(port=port, workers=2))
            with pytest.raises(ServiceError, match=f"cannot bind service on .*:{port}"):
                supervisor.start()
        assert supervisor._procs == []


    def test_port_held_by_another_reuseport_group_fails_before_forking(self):
        # Another fleet's listener: the reservation alone would join its
        # SO_REUSEPORT group and split the port's connections with it.
        with socket.socket() as other:
            other.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            other.bind(("127.0.0.1", 0))
            other.listen(1)
            port = other.getsockname()[1]
            supervisor = ServiceSupervisor(WorkerConfig(port=port, workers=2))
            try:
                with pytest.raises(ServiceError, match=f"cannot bind service on .*:{port}"):
                    supervisor.start()
            finally:
                supervisor.terminate()  # reaps workers should start() succeed
        assert supervisor._procs == []


class TestWorkerCountIdentity:
    def test_results_byte_identical_at_1_2_4_workers_and_drain_exits_0(
        self, tmp_path
    ):
        results: dict[int, bytes] = {}
        for workers in (1, 2, 4):
            proc, url = _start_serve(tmp_path, workers)
            try:
                results[workers] = _run_job(url, SPEC)
                _healthz_burst(url)
            finally:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    raise
            assert proc.returncode == 0, (
                f"--workers {workers}: SIGTERM drain must exit 0, "
                f"got {proc.returncode}"
            )
        assert results[1] == results[2] == results[4], (
            "result bytes must not depend on the worker count"
        )
        assert json.loads(results[1])  # and they are a real JSON payload
