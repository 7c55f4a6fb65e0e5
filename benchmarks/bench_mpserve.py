"""Multi-process serving benchmark: open-loop sweep at 1/2/4 workers.

The PR-10 tentpole claims ``drbw serve --workers N`` is *one service* at
any worker count.  This bench drives the real CLI — supervisor, fork,
shared port, drain — with the loadgen's open-loop arrival schedule
(no coordinated omission) and publishes, per worker count: sustained
RPS, p50/p99 at the sustained level, and the saturation knee.  Three
gates ride along:

* **byte identity in-bench** — one fixed spec served at every worker
  count returns identical result bytes;
* **availability pre-knee** — every sweep level below the knee completes
  all offered requests;
* **scaling** — 4 workers must sustain at least ``SCALING_FLOOR`` times
  the single-process RPS.  Skip-gated on hosts with fewer than 4 CPUs
  (the ratio is still measured and recorded): process-level scaling
  cannot exist without cores to scale onto.

``bench_all.py`` folds the emitted JSON into the ``mpserve`` section of
the ``BENCH_PR<k>.json`` trajectory point.
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
from repro.parallel.shards import benchmark_workload_spec, profile_shard
from repro.service.jobspec import execute_job
from repro.slo import run_open_loop

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

WORKER_COUNTS = (1, 2, 4)
#: Open-loop sweep levels as multiples of the host's estimated serial
#: job rate; the top level is deliberately past saturation so the knee
#: is driven, not assumed.
LEVEL_FRACTIONS = (0.25, 0.5, 1.0, 1.5)
LEVEL_DURATION_S = 1.25
#: A level counts as sustained while every request succeeded and median
#: latency stayed within this multiple of the unloaded baseline.
P50_BLOWUP = 4.0
#: Required 4-worker / 1-worker sustained-RPS ratio (enforced on >= 4 CPUs).
SCALING_FLOOR = 1.6

IDENTITY_SPEC = {"kind": "detect", "benchmark": "NW", "seed": 42}


def _start_serve(tmp_path: pathlib.Path, workers: int):
    """Launch ``drbw serve`` in a subprocess; returns (proc, base_url)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--workers", str(workers), "--threads", "2",
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


def _job_factory(offset: int):
    """Distinct NW profile jobs (defeats cache and single-flight)."""
    shard = profile_shard(benchmark_workload_spec("NW", "large"), 4, 2)

    def spec_for(k: int) -> dict:
        return {"kind": "profile", "spec": shard, "seed": offset + k}

    return spec_for


def _sweep_one_count(url: str, levels: list[float], offset: int) -> dict:
    """Open-loop ladder against one live server; returns the summary."""
    results = []
    for i, target in enumerate(levels):
        results.append(
            run_open_loop(
                url,
                _job_factory(offset + i * 100_000),
                target_rps=target,
                duration_s=LEVEL_DURATION_S,
                max_inflight=64,
            )
        )
    base_p50 = results[0].exact_quantile(0.5)
    sustained = []
    knee = None
    for r in results:
        p50 = r.exact_quantile(0.5)
        if r.availability >= 1.0 and p50 <= P50_BLOWUP * base_p50:
            sustained.append(r)
        else:
            knee = {
                "target_rps": r.target_rps,
                "achieved_rps": round(r.achieved_rps, 3),
                "availability": round(r.availability, 6),
                "p50_ms": round(p50 * 1e3, 3),
                "p50_blowup_vs_base": round(p50 / base_p50, 3),
            }
            break
    best = max(sustained, key=lambda r: r.achieved_rps) if sustained else results[0]
    return {
        "levels": [r.to_dict() for r in results],
        "sustained_rps": round(best.achieved_rps, 3),
        "sustained_p50_ms": round(best.exact_quantile(0.5) * 1e3, 3),
        "sustained_p99_ms": round(best.exact_quantile(0.99) * 1e3, 3),
        "pre_knee_availability": round(
            min((r.availability for r in sustained), default=0.0), 6
        ),
        "knee": knee,
    }


def test_mpserve_scaling(benchmark, results_dir, tmp_path):
    # Estimate this host's serial job rate to place the sweep ladder:
    # the same ladder for every worker count keeps the RPS comparable.
    warm_spec = _job_factory(10_000_000)
    execute_job(warm_spec(0))
    t0 = time.perf_counter()
    execute_job(warm_spec(1))
    serial_rate = 1.0 / max(time.perf_counter() - t0, 1e-4)
    levels = [max(2.0, round(serial_rate * f, 1)) for f in LEVEL_FRACTIONS]

    def run():
        sweeps: dict[int, dict] = {}
        identity: dict[int, bytes] = {}
        fleet_gauge: dict[int, int | None] = {}
        for n, workers in enumerate(WORKER_COUNTS):
            proc, url = _start_serve(tmp_path, workers)
            try:
                identity[workers] = _fetch_result_bytes(url, IDENTITY_SPEC)
                sweeps[workers] = _sweep_one_count(url, levels, n * 10_000_000)
                fleet_gauge[workers] = _metrics_workers(url)
            finally:
                code = _drain(proc)
            assert code == 0, (
                f"--workers {workers}: SIGTERM drain must exit 0, got {code}"
            )
        return sweeps, identity, fleet_gauge

    sweeps, identity, fleet_gauge = benchmark.pedantic(run, rounds=1, iterations=1)

    byte_identical = len(set(identity.values())) == 1
    scaling_4w = sweeps[4]["sustained_rps"] / max(sweeps[1]["sustained_rps"], 1e-9)
    cpus = os.cpu_count() or 1
    gate_enforced = cpus >= 4
    availability_pre_knee = all(
        s["pre_knee_availability"] >= 1.0 for s in sweeps.values()
    )

    lines = [
        f"open-loop sweep {levels} rps x {LEVEL_DURATION_S}s per level, "
        f"NW profile jobs, {cpus} CPU(s):",
        *(
            f"  workers={w}: sustained {s['sustained_rps']:7.1f} rps  "
            f"p50 {s['sustained_p50_ms']:7.1f} ms  "
            f"p99 {s['sustained_p99_ms']:7.1f} ms  "
            f"knee: {'none' if s['knee'] is None else s['knee']['target_rps']}"
            for w, s in sweeps.items()
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
            "levels_rps": levels,
            "level_duration_s": LEVEL_DURATION_S,
            "cpus": cpus,
            "sweeps": {str(w): s for w, s in sweeps.items()},
            "sustained_rps": {
                str(w): s["sustained_rps"] for w, s in sweeps.items()
            },
            "scaling_4w": round(scaling_4w, 3),
            "scaling_floor": SCALING_FLOOR,
            "scaling_gate_enforced": gate_enforced,
            "byte_identical": byte_identical,
            "availability_pre_knee": availability_pre_knee,
            "knee_detected": any(
                s["knee"] is not None for s in sweeps.values()
            ),
            "metrics_workers": {str(w): g for w, g in fleet_gauge.items()},
        },
    )
    assert byte_identical, "result bytes must not depend on the worker count"
    assert availability_pre_knee, {
        w: s["pre_knee_availability"] for w, s in sweeps.items()
    }
    # Multi-process /metrics must report the whole fleet from one scrape.
    assert fleet_gauge[2] == 2 and fleet_gauge[4] == 4, fleet_gauge
    if gate_enforced:
        assert scaling_4w >= SCALING_FLOOR, (
            f"4-worker serving sustained only {scaling_4w:.2f}x the "
            f"single-process RPS (floor: {SCALING_FLOOR}x)"
        )
