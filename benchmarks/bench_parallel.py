"""Campaign-runner scaling benchmark: Table II generation at 1/2/4 workers.

Two claims gate the parallel subsystem (ISSUE 4):

* **Determinism** — the merged campaign results must be *byte-identical*
  across ``--jobs 1``, ``--jobs 2``, and ``--jobs 4`` (canonical-JSON
  payload comparison, every shard).  Asserted unconditionally.
* **Scaling** — ``--jobs 4`` must beat serial by >= 1.7x on cold-cache
  Table II generation.  Asserted only when the machine actually exposes
  four usable CPUs (``os.sched_getaffinity``); the measured speedups are
  recorded either way.

A warm-cache pass is also timed: replaying the whole campaign from the
on-disk result cache must be dramatically cheaper than recomputing it.
"""

from __future__ import annotations

import os
import time

from _util import save_and_print
from repro.core.training import all_training_configs
from repro.parallel import CampaignRunner, ResultCache, profile_shard, training_workload_spec

JOB_COUNTS = (1, 2, 4)
SPEEDUP_FLOOR = 1.7
CAMPAIGN_SEED = 0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _table2_specs() -> list[dict]:
    return [
        profile_shard(training_workload_spec(cfg), cfg.n_threads, cfg.n_nodes)
        for cfg in all_training_configs()
    ]


def test_parallel_scaling(benchmark, results_dir, tmp_path):
    specs = _table2_specs()

    def run():
        seconds: dict[int, float] = {}
        payloads: dict[int, list[str]] = {}
        for jobs in JOB_COUNTS:
            runner = CampaignRunner(
                jobs=jobs, use_cache=False, campaign_seed=CAMPAIGN_SEED
            )
            t0 = time.perf_counter()
            result = runner.run(specs)
            seconds[jobs] = time.perf_counter() - t0
            payloads[jobs] = [o.canonical_payload for o in result]
        # Warm-cache replay: one cold populate (untimed), one timed re-run.
        cache = ResultCache(tmp_path / "cache")
        CampaignRunner(jobs=1, cache=cache, campaign_seed=CAMPAIGN_SEED).run(specs)
        t0 = time.perf_counter()
        warm = CampaignRunner(jobs=1, cache=cache, campaign_seed=CAMPAIGN_SEED).run(
            specs
        )
        warm_s = time.perf_counter() - t0
        payloads["warm"] = [o.canonical_payload for o in warm]
        assert warm.cache_hits == len(specs)
        return seconds, payloads, warm_s

    seconds, payloads, warm_s = benchmark.pedantic(run, rounds=1, iterations=1)

    identical = all(payloads[j] == payloads[1] for j in (*JOB_COUNTS, "warm"))
    speedups = {j: seconds[1] / seconds[j] for j in JOB_COUNTS}
    cpus = _usable_cpus()

    lines = [
        f"Table II campaign ({len(specs)} shards), cold cache, "
        f"{cpus} usable CPU(s):",
        f"{'jobs':>6}{'seconds':>10}{'speedup':>9}",
    ]
    for jobs in JOB_COUNTS:
        lines.append(f"{jobs:>6}{seconds[jobs]:>10.3f}{speedups[jobs]:>8.2f}x")
    lines.append(
        f"{'warm':>6}{warm_s:>10.3f}{seconds[1] / warm_s:>8.2f}x  (cache replay)"
    )
    lines.append(
        "merged results byte-identical across jobs=1/2/4 and cache replay: "
        f"{identical}"
    )
    save_and_print(
        results_dir, "parallel_scaling", "\n".join(lines),
        data={
            "n_shards": len(specs),
            "seconds": {str(j): seconds[j] for j in JOB_COUNTS},
            "warm_cache_seconds": warm_s,
            "speedup_jobs2": speedups[2],
            "speedup_jobs4": speedups[4],
            "identical": identical,
            "usable_cpus": cpus,
        },
    )
    # The determinism bar holds everywhere, including single-CPU CI boxes.
    assert identical, "campaign results differ across worker counts"
    assert warm_s < seconds[1], "cache replay should beat recomputation"
    # The scaling bar only means something with real parallelism available.
    if cpus >= 4:
        assert speedups[4] >= SPEEDUP_FLOOR, (
            f"jobs=4 speedup {speedups[4]:.2f}x below the {SPEEDUP_FLOOR}x floor"
        )
