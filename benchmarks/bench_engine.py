"""Columnar engine hot path: the sampling-throughput benchmark.

PR 9 rebuilt the engine/sampler hot path — stationary-span solving,
bucket accumulation, and PEBS thinning — as columnar batch kernels and
proved them against the scalar reference with a differential oracle.
PR 10 retired that reference kernel, so this benchmark now measures the
columnar path alone on the Table VII workload set: ``machine.run``
through a finished :class:`~repro.pmu.sample.RawSampleBatch`, min-of-3.

One claim is checked, not hoped: **byte determinism** — each
benchmark's batch must be byte-identical across repetitions (the
oracle's surviving in-bench guard; cross-commit stability is pinned by
the interval goldens).  Samples/s is reported, not gated: a throughput
floor compares with a number from another host, so speed is judged by
perfbench's same-host parent/change comparison instead.
"""

from __future__ import annotations

import time

from _util import save_and_print
from repro.eval.configs import RunConfig
from repro.eval.experiments import TABLE7_BENCHMARKS
from repro.numasim.machine import Machine
from repro.osl.threads import bind_threads_tt_nn
from repro.pmu.sampler import AddressSampler, SamplerConfig
from repro.workloads.base import compile_workload
from repro.workloads.suites.registry import BENCHMARKS

ENGINE_CONFIG = RunConfig(64, 4)
REPETITIONS = 3


def _batch_bytes(batch) -> tuple[bytes, ...]:
    return (
        batch.address.tobytes(),
        batch.cpu.tobytes(),
        batch.thread_id.tobytes(),
        batch.level.tobytes(),
        batch.latency.tobytes(),
    )


def test_engine_hot_path(benchmark, results_dir):
    machine = Machine()
    sampler_cfg = SamplerConfig(seed=0)
    compiled = []
    for name, inp in TABLE7_BENCHMARKS:
        workload = BENCHMARKS[name].build(inp)
        bindings = bind_threads_tt_nn(
            machine.topology, ENGINE_CONFIG.n_threads, ENGINE_CONFIG.n_nodes
        )
        compiled.append((name, compile_workload(workload, machine.topology, bindings)))

    def run():
        best: dict[str, float] = {}
        samples: dict[str, int] = {}
        digests: dict[str, tuple[bytes, ...]] = {}
        for _ in range(REPETITIONS):
            for name, cw in compiled:
                t0 = time.perf_counter()
                result = machine.run(cw.programs)
                batch = AddressSampler(
                    sampler_cfg,
                    page_table=cw.page_table,
                    latency_model=machine.latency_model,
                ).sample_run_batch(result)
                best[name] = min(
                    best.get(name, float("inf")), time.perf_counter() - t0
                )
                raw = _batch_bytes(batch)
                prev = digests.setdefault(name, raw)
                assert raw == prev, (
                    f"{name}: batch bytes differ between repetitions"
                )
                samples[name] = len(batch)
        return best, samples

    best, samples = benchmark.pedantic(run, rounds=1, iterations=1)

    total = sum(best.values())
    total_samples = sum(samples.values())
    samples_per_sec = total_samples / total if total else 0.0

    lines = [
        "columnar engine hot path (run + sample), "
        f"min of {REPETITIONS} runs ({ENGINE_CONFIG.name}):",
        f"{'Code':<15}{'seconds':>10}{'samples':>12}",
    ]
    for name, _ in TABLE7_BENCHMARKS:
        lines.append(f"{name:<15}{best[name]:>10.3f}{samples[name]:>12,}")
    lines.append(f"{'aggregate':<15}{total:>10.3f}{total_samples:>12,}")
    lines.append(f"({samples_per_sec:,.0f} samples/s)")
    save_and_print(
        results_dir, "engine_hot_path", "\n".join(lines),
        data={
            "samples_per_sec": samples_per_sec,
            "byte_identical": True,  # repetition determinism asserted above
            "columnar_seconds": best,
            "samples": samples,
            "repetitions": REPETITIONS,
        },
    )
