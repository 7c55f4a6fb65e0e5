"""Job specs: validation, canonical identity, and execution.

A job spec is a plain JSON dict naming one unit of pipeline work:

* ``{"kind": "detect", "benchmark": ..., ...}`` — profile one benchmark
  analog and classify every channel (the ``drbw detect`` computation);
* ``{"kind": "diagnose", ...}`` — detect, then rank contended data
  objects by Contribution Fraction (``drbw diagnose``);
* ``{"kind": "profile", "spec": <shard spec>, "seed": N}`` — execute one
  raw profile shard exactly as a campaign worker would
  (:func:`repro.parallel.shards.run_profile_shard`).

:func:`normalize_job` fills defaults and rejects malformed specs with a
typed :class:`~repro.errors.ServiceError`; :func:`job_key` hashes the
normalized spec (plus the package version) into the identity used for
request coalescing and the warm-result cache; :func:`execute_job` runs
the work and returns a plain-JSON result.

**Byte identity with the CLI** is by construction, not by test luck:
``drbw detect --json`` / ``drbw diagnose --json`` print
``canonical_json(execute_job(spec))`` for the spec built from their
arguments, and the service stores exactly those canonical bytes as the
job result — the same function produces both, so the service can never
drift from the command line.
"""

from __future__ import annotations

import importlib
from typing import Any

import repro
from repro.errors import ConfigError, ServiceError
from repro.parallel.seeding import canonical_json, config_hash

__all__ = [
    "JOB_KINDS",
    "PIPELINE_MODULES",
    "execute_job",
    "import_pipeline",
    "job_key",
    "normalize_job",
    "verdicts_payload",
    "degradation_payload",
    "diagnosis_payload",
]

#: Spec kinds the service executes.
JOB_KINDS = ("detect", "diagnose", "profile")

#: Keys allowed in a detect/diagnose spec (everything else is a typo we
#: reject rather than silently ignore — a misspelled ``seeed`` changing
#: the job identity but not the computation would poison the cache).
_DETECT_KEYS = {"kind", "benchmark", "input", "config", "seed", "faults", "model"}
_PROFILE_KEYS = {"kind", "spec", "seed"}


# -- result payload fragments (shared with the CLI) -------------------------------


def verdicts_payload(verdicts) -> list[dict]:
    """JSON form of per-channel verdicts, in sorted channel order."""
    return [
        {
            "channel": str(ch),
            "label": v.label,
            "mode": v.mode.value,
            "confidence": v.confidence,
            "n_remote_samples": v.n_remote_samples,
            "insufficient_data": v.insufficient_data,
        }
        for ch, v in sorted(verdicts.items())
    ]


def degradation_payload(d) -> dict:
    """JSON form of one run's quarantine/degradation ledger."""
    return {
        "observed": d.observed,
        "kept": d.kept,
        "quarantined": dict(d.quarantined),
        "injected": {k: v for k, v in d.injected.items() if v},
        "drop_fraction": d.drop_fraction,
        "resample_attempts": d.resample_attempts,
        "resampled_channels": [str(c) for c in d.resampled_channels],
    }


def diagnosis_payload(report) -> dict:
    """JSON form of a Contribution-Fraction diagnosis report."""
    return {
        "contended_channels": [str(c) for c in report.contended_channels],
        "attribution_coverage": report.attribution_coverage,
        "top": [
            {"name": c.name, "site": c.site, "cf": c.cf, "n_samples": c.n_samples}
            for c in report.top(10)
        ],
    }


# -- validation / identity --------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(message)


def normalize_job(spec: Any) -> dict:
    """Validated, default-filled copy of ``spec``.

    Normalization is what makes coalescing work: two requests that mean
    the same job must produce the same dict here (and therefore the same
    :func:`job_key`), even if one spelled out defaults the other omitted.
    """
    _require(isinstance(spec, dict), f"job spec must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind")
    _require(kind in JOB_KINDS, f"job kind must be one of {JOB_KINDS}, got {kind!r}")

    if kind == "profile":
        unknown = set(spec) - _PROFILE_KEYS
        _require(not unknown, f"unknown profile job fields {sorted(unknown)}")
        shard = spec.get("spec")
        _require(isinstance(shard, dict), "profile job needs a 'spec' object (a shard spec)")
        seed = spec.get("seed", 0)
        _require(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
                 f"seed must be a non-negative integer, got {seed!r}")
        return {"kind": "profile", "spec": shard, "seed": seed}

    unknown = set(spec) - _DETECT_KEYS
    _require(not unknown, f"unknown {kind} job fields {sorted(unknown)}")
    benchmark = spec.get("benchmark")
    _require(isinstance(benchmark, str) and benchmark,
             f"{kind} job needs a 'benchmark' name")
    from repro.workloads.suites.registry import BENCHMARKS

    bench = BENCHMARKS.get(benchmark)
    _require(bench is not None, f"unknown benchmark {benchmark!r}")
    inp = spec.get("input") or bench.inputs[-1]
    _require(inp in bench.inputs,
             f"{benchmark} has inputs {list(bench.inputs)}, not {inp!r}")
    config = spec.get("config", "T32-N4")
    from repro.eval.configs import config_by_name

    try:
        config_by_name(config)
    except ConfigError as exc:
        raise ServiceError(str(exc)) from exc
    seed = spec.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
             f"seed must be a non-negative integer, got {seed!r}")
    faults = spec.get("faults")
    _require(faults is None or isinstance(faults, str),
             "faults must be a preset/plan string or null")
    if faults is not None:
        from repro.faults import parse_fault_plan

        try:
            parse_fault_plan(faults)
        except ConfigError as exc:
            raise ServiceError(str(exc)) from exc
    model = spec.get("model")
    _require(model is None or isinstance(model, str),
             "model must be a path string or null")
    return {
        "kind": kind,
        "benchmark": benchmark,
        "input": inp,
        "config": config,
        "seed": seed,
        "faults": faults,
        "model": model,
    }


def job_key(spec: Any) -> str:
    """The job's coalescing/cache identity: SHA-256 over the normalized
    spec and the package version (a new release never replays old bytes)."""
    return config_hash({
        "job": normalize_job(spec),
        "version": repro.__version__,
    })


# -- execution --------------------------------------------------------------------

#: Every module :func:`execute_job` reaches that a bare ``import
#: repro.service`` does not load.  The service imports them before it
#: reports ready (:func:`import_pipeline`), so the first job pays no import.
PIPELINE_MODULES = (
    "numpy.random",
    "repro.core.classifier",
    "repro.core.diagnoser",
    "repro.core.profiler",
    "repro.core.training",
    "repro.eval.configs",
    "repro.faults",
    "repro.parallel.campaign",
    "repro.parallel.shards",
    "repro.types",
    "repro.workloads.suites.lulesh",
    "repro.workloads.suites.npb",
    "repro.workloads.suites.parsec",
    "repro.workloads.suites.registry",
    "repro.workloads.suites.rodinia",
    "repro.workloads.suites.sequoia",
)


def import_pipeline() -> None:
    """Import :data:`PIPELINE_MODULES`."""
    for name in PIPELINE_MODULES:
        importlib.import_module(name)



def _execute_detect(spec: dict) -> dict:
    from repro.core.classifier import DrBwClassifier, classify_case
    from repro.core.diagnoser import Diagnoser
    from repro.core.profiler import DrBwProfiler, ProfilerConfig
    from repro.core.training import train_default_classifier
    from repro.numasim.machine import Machine
    from repro.workloads.suites.registry import BENCHMARKS

    machine = Machine()
    if spec["model"]:
        clf = DrBwClassifier.load(spec["model"])
    else:
        clf, _ = train_default_classifier(machine, seed=spec["seed"])

    profiler_cfg = ProfilerConfig()
    if spec["faults"]:
        from repro.core.classifier import MIN_CHANNEL_SUPPORT
        from repro.faults import parse_fault_plan

        profiler_cfg = ProfilerConfig(
            faults=parse_fault_plan(spec["faults"]),
            resample_floor=MIN_CHANNEL_SUPPORT,
            resample_attempts=3,
        )

    from repro.eval.configs import config_by_name

    cfg = config_by_name(spec["config"])
    workload = BENCHMARKS[spec["benchmark"]].build(spec["input"])
    profile = DrBwProfiler(machine, profiler_cfg).profile(
        workload, cfg.n_threads, cfg.n_nodes, seed=spec["seed"]
    )
    verdicts = clf.classify_profile_detailed(profile)
    labels = {ch: v.mode for ch, v in verdicts.items()}
    verdict = classify_case(labels)

    from repro.types import Mode

    diagnosis = None
    if spec["kind"] == "diagnose" and verdict is Mode.RMC:
        diagnosis = Diagnoser().diagnose(profile, labels)

    result = {
        "kind": spec["kind"],
        "benchmark": spec["benchmark"],
        "input": spec["input"],
        "config": spec["config"],
        "seed": spec["seed"],
        "channel_verdicts": verdicts_payload(verdicts),
        "case_verdict": verdict.value,
        "degradation": degradation_payload(profile.dropped),
    }
    if spec["kind"] == "diagnose":
        result["diagnosis"] = diagnosis_payload(diagnosis) if diagnosis else None
    return result


def execute_job(spec: Any) -> dict:
    """Run one job and return its plain-JSON result.

    Accepts raw or normalized specs (normalization is idempotent), so
    the CLI and the service worker call the same entry point.  The
    result is canonical-JSON-serializable; the service stores
    ``canonical_json(result)`` verbatim as the job's result bytes.
    """
    spec = normalize_job(spec)
    from repro import telemetry

    # One root span per execution (zero-cost when telemetry is off): the
    # service worker's session always has at least this span to merge, so
    # every executed job's trace resolves to spans even if the pipeline
    # stages underneath change shape.
    attrs = (
        {"benchmark": spec["benchmark"]} if spec.get("benchmark") else {}
    )
    with telemetry.get_telemetry().span(
        f"service.execute.{spec['kind']}", **attrs
    ):
        if spec["kind"] == "profile":
            from repro.parallel.shards import run_profile_shard

            import json

            payload = run_profile_shard(spec["spec"], spec["seed"])
            # Round-trip through canonical JSON like the campaign runner,
            # so warm and fresh results are the same object shape.
            return json.loads(canonical_json(payload))
        return _execute_detect(spec)
