"""Multi-process serving benchmark: capacity at 1/2/4 workers.

The PR-10 tentpole claims ``drbw serve --workers N`` is *one service* at
any worker count.  This bench drives the real CLI — supervisor, fork,
shared port, drain — and measures each worker count's capacity with
perfbench's method (``perfbench/loadgen.py``): a closed loop of senders
for ``SATURATE_S`` seconds, and the most completions per second in any
``RATE_WINDOW_S`` window of it.  A shared host's slow spells lower some
windows but not the best one.  Three gates ride along:

* **byte identity in-bench** — one fixed spec served at every worker
  count returns identical result bytes;
* **availability under saturation** — no request fails while the loop
  saturates the service;
* **scaling** — 4 workers must serve at least ``SCALING_FLOOR`` times
  the single-process rate.  Skip-gated on hosts with fewer than 4 CPUs
  (the ratio is still measured and recorded): process-level scaling
  cannot exist without cores to scale onto.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
import urllib.request

from _util import save_and_print
from repro.errors import ServiceError, ServiceSaturatedError
from repro.parallel.shards import benchmark_workload_spec, profile_shard
from repro.service.client import ServiceClient

_REPO = pathlib.Path(__file__).resolve().parent.parent
# perfbench's modules are scripts, not a package; loadgen uses only the stdlib.
sys.path.insert(0, str(_REPO / "perfbench"))

from loadgen import best_rate, quantile, saturate  # noqa: E402

REPO_SRC = _REPO / "src"

WORKER_COUNTS = (1, 2, 4)
THREADS = 2
#: Closed-loop senders per worker: twice its job threads, so a worker's
#: queue never drains while a sender polls.
SENDERS_PER_WORKER = 2 * THREADS
SATURATE_S = 5.0
#: Capacity is the best completion rate over windows of this length, one
#: starting every RATE_STRIDE_S (perfbench's serve-exec values).
RATE_WINDOW_S = 2.0
RATE_STRIDE_S = 0.25
POLL_S = 0.005
#: Required 4-worker / 1-worker capacity ratio (enforced on >= 4 CPUs).
SCALING_FLOOR = 1.6

IDENTITY_SPEC = {"kind": "detect", "benchmark": "NW", "seed": 42}


def _start_serve(tmp_path: pathlib.Path, workers: int):
    """Launch ``drbw serve`` in a subprocess; returns (proc, base_url)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--workers", str(workers), "--threads", str(THREADS),
            "--queue-size", "256", "--no-telemetry",
            "--cache-dir", str(tmp_path / f"cache-w{workers}"),
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
            return proc, line.split("listening on ", 1)[1].split()[0]
        if proc.poll() is not None:
            break
        if not line:
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("serve did not report a listening address")


def _drain(proc: subprocess.Popen) -> int:
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=180)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise


def _fetch_result_bytes(url: str, spec: dict) -> bytes:
    """Submit ``spec`` and return the finished job's exact result bytes."""
    req = urllib.request.Request(
        f"{url}/v1/jobs", data=json.dumps(spec).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        job = json.load(resp)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(
                f"{url}/v1/jobs/{job['id']}/result", timeout=30
            ) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            if exc.code != 409:
                raise
            time.sleep(0.1)
    raise AssertionError("identity job did not finish in 120s")


def _metrics_workers(url: str) -> int | None:
    """The fleet-size gauge from ``/metrics`` (absent in 1-worker mode)."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=30) as resp:
        for line in resp.read().decode().splitlines():
            if line.startswith("drbw_service_metrics_workers "):
                return int(float(line.split()[1]))
    return None


def _sender(url: str, offset: int):
    """``send(k)`` for :func:`loadgen.saturate`: run distinct NW profile
    job ``offset + k`` (defeats cache and single-flight) to completion."""
    shard = profile_shard(benchmark_workload_spec("NW", "large"), 4, 2)

    def send(k: int) -> str:
        client = ServiceClient(url, timeout=60.0)
        spec = {"kind": "profile", "spec": shard, "seed": offset + k}
        try:
            job_id = client.submit(spec)["id"]
            client.wait(job_id, timeout=120.0, poll_s=POLL_S, poll_max_s=POLL_S)
        except ServiceSaturatedError:
            return "refused"
        except ServiceError:
            return "failed"
        return "ok"

    return send


def _capacity(url: str, workers: int, offset: int) -> dict:
    """Saturate one live server; returns its capacity summary."""
    phase = saturate(_sender(url, offset), SATURATE_S,
                     slots=SENDERS_PER_WORKER * workers)
    return {
        "senders": SENDERS_PER_WORKER * workers,
        "attempted": phase.attempted,
        "outcomes": phase.outcomes,
        "errors": phase.errors[:5],
        "capacity_rps": round(best_rate(phase.done_s, RATE_WINDOW_S, RATE_STRIDE_S), 3),
        "p50_ms": round(quantile(phase.latencies_s, 0.50) * 1e3, 3),
        "p95_ms": round(quantile(phase.latencies_s, 0.95) * 1e3, 3),
    }


def test_mpserve_scaling(benchmark, results_dir, tmp_path):
    def run():
        capacity: dict[int, dict] = {}
        identity: dict[int, bytes] = {}
        fleet_gauge: dict[int, int | None] = {}
        for n, workers in enumerate(WORKER_COUNTS):
            proc, url = _start_serve(tmp_path, workers)
            try:
                identity[workers] = _fetch_result_bytes(url, IDENTITY_SPEC)
                capacity[workers] = _capacity(url, workers, n * 10_000_000)
                fleet_gauge[workers] = _metrics_workers(url)
            finally:
                code = _drain(proc)
            assert code == 0, (
                f"--workers {workers}: SIGTERM drain must exit 0, got {code}"
            )
        return capacity, identity, fleet_gauge

    capacity, identity, fleet_gauge = benchmark.pedantic(run, rounds=1, iterations=1)

    byte_identical = len(set(identity.values())) == 1
    scaling_4w = capacity[4]["capacity_rps"] / max(capacity[1]["capacity_rps"], 1e-9)
    cpus = os.cpu_count() or 1
    gate_enforced = cpus >= 4
    failed = {w: c["attempted"] - c["outcomes"]["ok"] for w, c in capacity.items()}

    lines = [
        f"closed-loop saturation {SATURATE_S:g}s per worker count, capacity = "
        f"best {RATE_WINDOW_S:g}s completion window, NW profile jobs, "
        f"{cpus} CPU(s):",
        *(
            f"  workers={w}: capacity {c['capacity_rps']:7.1f} rps  "
            f"p50 {c['p50_ms']:7.1f} ms  p95 {c['p95_ms']:7.1f} ms  "
            f"failed {failed[w]}/{c['attempted']}"
            for w, c in capacity.items()
        ),
        f"byte identity across worker counts: {byte_identical}",
        f"fleet metrics gauge: {fleet_gauge}",
        f"scaling 4w/1w: {scaling_4w:.2f}x "
        f"(gate >= {SCALING_FLOOR}x {'enforced' if gate_enforced else 'skipped: < 4 CPUs'})",
    ]
    save_and_print(
        results_dir, "mpserve", "\n".join(lines),
        data={
            "worker_counts": list(WORKER_COUNTS),
            "saturate_s": SATURATE_S,
            "rate_window_s": RATE_WINDOW_S,
            "cpus": cpus,
            "capacity": {str(w): c for w, c in capacity.items()},
            "capacity_rps": {
                str(w): c["capacity_rps"] for w, c in capacity.items()
            },
            "scaling_4w": round(scaling_4w, 3),
            "scaling_floor": SCALING_FLOOR,
            "scaling_gate_enforced": gate_enforced,
            "byte_identical": byte_identical,
            "failed_under_saturation": {str(w): f for w, f in failed.items()},
            "metrics_workers": {str(w): g for w, g in fleet_gauge.items()},
        },
    )
    assert byte_identical, "result bytes must not depend on the worker count"
    assert not any(failed.values()), {
        w: capacity[w]["errors"] or capacity[w]["outcomes"] for w in capacity
    }
    # Multi-process /metrics must report the whole fleet from one scrape.
    assert fleet_gauge[2] == 2 and fleet_gauge[4] == 4, fleet_gauge
    if gate_enforced:
        assert scaling_4w >= SCALING_FLOOR, (
            f"4-worker serving sustained only {scaling_4w:.2f}x the "
            f"single-process RPS (floor: {SCALING_FLOOR}x)"
        )
