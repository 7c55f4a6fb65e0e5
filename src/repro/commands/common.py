"""Helpers shared by the pipeline commands (detect, monitor, fleet, loadgen)."""

from __future__ import annotations

import sys

from repro.core.classifier import MIN_CHANNEL_SUPPORT, DrBwClassifier
from repro.core.profiler import ProfilerConfig
from repro.core.training import train_default_classifier
from repro.errors import ConfigError
from repro.faults import parse_fault_plan
from repro.numasim.machine import Machine
from repro.workloads.suites.registry import BENCHMARKS, BenchmarkSpec


def load_or_train(model_path: str | None, seed: int, machine: Machine) -> DrBwClassifier:
    """The classifier saved at ``model_path``, else one trained in-process."""
    if model_path:
        return DrBwClassifier.load(model_path)
    print("no --model given; training on the mini-programs ...", file=sys.stderr)
    clf, _ = train_default_classifier(machine, seed=seed)
    return clf


def resolve_benchmark(args) -> tuple[BenchmarkSpec, str]:
    """``args.benchmark`` and ``args.input`` (default: the largest input)."""
    try:
        spec = BENCHMARKS[args.benchmark]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {args.benchmark!r}; try `list`"
        ) from None
    inp = args.input or spec.inputs[-1]
    if inp not in spec.inputs:
        raise ConfigError(f"{spec.name} has inputs {spec.inputs}, not {inp!r}")
    return spec, inp


def profiler_config(args) -> ProfilerConfig:
    """The profiler configuration for ``--faults`` (none: the default)."""
    if not getattr(args, "faults", None):
        return ProfilerConfig()
    plan = parse_fault_plan(args.faults)
    # Under lossy collection, retry channels that came back below the
    # classifier's support floor (see docs/robustness.md).
    return ProfilerConfig(
        faults=plan,
        resample_floor=MIN_CHANNEL_SUPPORT,
        resample_attempts=3,
    )
