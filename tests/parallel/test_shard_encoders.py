"""The shard encoders are total: every profiled case runs as a shard.

:func:`machine_spec` and :func:`profiler_spec` return a spec or raise
:class:`ParallelError` naming the field they cannot encode; the campaign
drivers raise with them instead of switching to an in-process path.
"""

import dataclasses

import pytest

from repro.core.profiler import ProfilerConfig
from repro.core.training import collect_training_set
from repro.errors import ParallelError
from repro.eval.experiments import run_table7_overhead
from repro.eval.faulted import run_detection_under_faults
from repro.numasim.cachemodel import CacheModel
from repro.numasim.latency import LatencyModel
from repro.numasim.machine import Machine
from repro.numasim.topology import CacheSpec, NumaTopology
from repro.parallel.shards import _build_machine, machine_spec, profiler_spec
from repro.pmu.events import MEM_TRANS_RETIRED_LATENCY_ABOVE_THRESHOLD
from repro.pmu.sampler import SamplerConfig
from repro.types import Channel, MemLevel

_LATENCY_BASE = {**LatencyModel().base, MemLevel.REMOTE_DRAM: 400.0}

UNENCODABLE_MACHINES = {
    "link_capacity_overrides": Machine(link_capacity_overrides={Channel(0, 1): 2.0}),
    "l2": Machine(
        topology=dataclasses.replace(NumaTopology(), l2=CacheSpec(512 * 1024, 64, 8))
    ),
    "base": Machine(
        latency_model=dataclasses.replace(LatencyModel(), base=_LATENCY_BASE)
    ),
    "cache_model": Machine(cache_model=CacheModel(prefetch_efficiency=0.3)),
}

UNENCODABLE_PROFILERS = {
    "event": ProfilerConfig(
        sampler=SamplerConfig(
            event=dataclasses.replace(
                MEM_TRANS_RETIRED_LATENCY_ABOVE_THRESHOLD, min_latency_cycles=7
            )
        )
    ),
    "faults": ProfilerConfig(faults={"drop_rate": 0.1}),
}


@pytest.mark.parametrize("field", sorted(UNENCODABLE_MACHINES))
def test_machine_spec_names_the_unencodable_field(field):
    with pytest.raises(ParallelError, match=field):
        machine_spec(UNENCODABLE_MACHINES[field])


@pytest.mark.parametrize("field", sorted(UNENCODABLE_PROFILERS))
def test_profiler_spec_names_the_unencodable_field(field):
    with pytest.raises(ParallelError, match=field):
        profiler_spec(UNENCODABLE_PROFILERS[field])


def test_every_scalar_machine_field_round_trips():
    machine = Machine(
        topology=dataclasses.replace(NumaTopology(), link_bw_bytes_per_cycle=3.0),
        latency_model=dataclasses.replace(
            LatencyModel(), max_inflation=4.0, noise_sigma=0.2
        ),
    )
    spec = machine_spec(machine)
    assert spec == {
        "topology": {"link_bw_bytes_per_cycle": 3.0},
        "latency_model": {"max_inflation": 4.0, "noise_sigma": 0.2},
    }
    rebuilt = _build_machine(spec)
    assert rebuilt.topology == machine.topology
    assert rebuilt.latency_model == machine.latency_model


def test_collect_training_set_raises_instead_of_profiling_in_process():
    with pytest.raises(ParallelError, match="link_capacity_overrides"):
        collect_training_set(UNENCODABLE_MACHINES["link_capacity_overrides"])


def test_table7_overhead_raises_instead_of_profiling_in_process():
    with pytest.raises(ParallelError, match="event"):
        run_table7_overhead(profiler_config=UNENCODABLE_PROFILERS["event"])


def test_faulted_sweep_raises_for_a_plan_that_is_not_a_fault_plan():
    with pytest.raises(ParallelError, match="faults"):
        run_detection_under_faults({"drop_rate": 0.1})
