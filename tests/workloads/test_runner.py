"""Tests for the convenience runner."""

import pickle

import pytest

from repro.errors import WorkloadError
from repro.workloads.micro import make_sumv
from repro.workloads.runner import compile_bound, run_workload

MB = 1024 * 1024


class TestRunWorkload:
    def test_binds_and_runs(self, machine):
        run = run_workload(make_sumv(32 * MB), machine, 8, 2)
        assert run.total_cycles > 0
        assert run.compiled.n_threads == 8
        nodes = {b.node for b in run.compiled.bindings}
        assert nodes == {0, 1}

    def test_extra_stall_passthrough(self, machine):
        base = run_workload(make_sumv(32 * MB), machine, 4, 1)
        slowed = run_workload(
            make_sumv(32 * MB), machine, 4, 1, extra_stall_cycles_per_access=2.0
        )
        assert slowed.total_cycles > base.total_cycles

    def test_barriers_follow_workload(self, machine):
        wl = make_sumv(32 * MB)
        assert wl.barriers
        run = run_workload(wl, machine, 4, 1)
        assert run.result.phase_timings


class TestSharedCompile:
    """Runs of one workload may share its compiled binding."""

    def test_run_does_not_mutate_compiled_workload(self, machine):
        from repro.workloads.suites.registry import BENCHMARKS

        spec = BENCHMARKS["AMG2006"]
        wl = spec.build(spec.inputs[0])
        compiled = compile_bound(wl, machine, 16, 4)
        before = pickle.dumps(compiled)
        records = []
        run_workload(wl, machine, 16, 4, compiled=compiled)
        run_workload(
            wl, machine, 16, 4, compiled=compiled,
            extra_stall_cycles_per_access=3.0,
            interval_listener=records.append, interval_max_cycles=1e6,
        )
        assert records
        assert pickle.dumps(compiled) == before

    def test_shared_compile_gives_the_same_run(self, machine):
        wl = make_sumv(32 * MB)
        compiled = compile_bound(wl, machine, 8, 2)
        run_workload(wl, machine, 8, 2, compiled=compiled)
        shared = run_workload(wl, machine, 8, 2, compiled=compiled)
        fresh = run_workload(wl, machine, 8, 2)
        assert shared.compiled is compiled
        assert shared.total_cycles == fresh.total_cycles
        a, b = shared.result.bucket_columns, fresh.result.bucket_columns
        assert a.n_accesses.tobytes() == b.n_accesses.tobytes()
        assert a.mean_latency.tobytes() == b.mean_latency.tobytes()

    @pytest.mark.parametrize("t, n, same_workload", [
        (4, 2, True), (8, 1, True), (8, 2, False),
    ])
    def test_mismatched_compile_is_refused(self, machine, t, n, same_workload):
        wl = make_sumv(32 * MB)
        compiled = compile_bound(wl if same_workload else make_sumv(32 * MB), machine, 8, 2)
        with pytest.raises(WorkloadError, match="is not"):
            run_workload(wl, machine, t, n, compiled=compiled)


def test_oracle_shard_compiles_once_per_binding(monkeypatch):
    """An oracle shard compiles the original binding once (shared by the
    oracle's original run and the profile run) plus the interleaved one."""
    import repro.workloads.runner as runner
    from repro.parallel import benchmark_workload_spec, profile_shard, run_profile_shard
    from repro.parallel import shards

    monkeypatch.setattr(shards, "_last_run", None)  # a cold shard

    calls = []
    compile_workload = runner.compile_workload

    def counting(workload, topology, bindings):
        calls.append(workload.name)
        return compile_workload(workload, topology, bindings)

    monkeypatch.setattr(runner, "compile_workload", counting)
    spec = profile_shard(benchmark_workload_spec("NW", "default"), 8, 2, oracle=True)
    payload = run_profile_shard(spec, 3)
    assert "oracle" in payload and "channels" in payload
    assert len(calls) == 2
