"""Run-artifact export and load.

One telemetry session exports to one directory::

    out/
      meta.json       reproducibility metadata (seed, fault plan, topology
                      hash, package version, command)
      spans.jsonl     one finished span per line
      trace.json      the same spans as Chrome-trace JSON (chrome://tracing
                      or https://ui.perfetto.dev)
      metrics.json    counters / gauges / histograms snapshot
      timeline.jsonl  one per-resource utilization timeline per line
      results.json    pipeline results (channel verdicts, case verdict,
                      degradation counters, diagnosis ranking)

Everything a ``repro report`` dashboard shows comes from these files
alone, so a run is explainable — and reproducible, via ``meta.json`` —
long after the process that produced it is gone.  Loading validates
presence and shape and raises :class:`repro.errors.TelemetryError` with
the offending path, never a bare ``KeyError``; the ``.jsonl`` files go
through :mod:`repro.jsonl`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import TelemetryError
from repro.jsonl import JsonlLog, read_jsonl
from repro.telemetry import Telemetry
from repro.telemetry.spans import chrome_trace_events
from repro.telemetry.timeline import (
    ResourceTimeline,
    dump_timelines,
    load_timelines,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.numasim.topology import NumaTopology

__all__ = [
    "ARTIFACT_VERSION",
    "RunArtifact",
    "collect_metadata",
    "topology_hash",
    "export_artifact",
    "load_artifact",
    "validate_chrome_trace",
]

logger = logging.getLogger(__name__)

ARTIFACT_VERSION = 1

_META = "meta.json"
_SPANS = "spans.jsonl"
_TRACE = "trace.json"
_METRICS = "metrics.json"
_TIMELINE = "timeline.jsonl"
_RESULTS = "results.json"


def topology_hash(topology: "NumaTopology") -> str:
    """Stable short hash over every topology parameter.

    Two artifacts with equal hashes were measured on identical simulated
    machines — the first thing to check before comparing their numbers.
    """
    payload = json.dumps(dataclasses.asdict(topology), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def collect_metadata(
    command: str,
    seed: int | None,
    topology: "NumaTopology",
    faults: object | None = None,
    **extra: object,
) -> dict:
    """The reproducibility block every artifact carries.

    ``faults`` is a :class:`repro.faults.FaultPlan` or ``None``; its full
    field set (rates, seed, truncation range, counter width) is embedded
    so the run can be replayed from the artifact alone.
    """
    import repro

    fault_spec: dict | None = None
    if faults is not None:
        fault_spec = {
            "describe": faults.describe(),
            "fields": {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(faults).items()
            },
        }
    meta = {
        "artifact_version": ARTIFACT_VERSION,
        "package_version": repro.__version__,
        "command": command,
        "seed": seed,
        "topology_hash": topology_hash(topology),
        "topology": dataclasses.asdict(topology),
        "fault_plan": fault_spec,
    }
    meta.update(extra)
    return meta


@dataclass
class RunArtifact:
    """An exported run, loaded back into memory."""

    meta: dict
    spans: list[dict]
    metrics: dict
    timelines: list[ResourceTimeline]
    results: dict = field(default_factory=dict)


def export_artifact(
    out_dir: str,
    tel: Telemetry,
    meta: dict,
    results: dict | None = None,
) -> str:
    """Write one session's telemetry to ``out_dir``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    spans = tel.tracer.to_dicts()
    with open(os.path.join(out_dir, _META), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    with JsonlLog(os.path.join(out_dir, _SPANS), error=TelemetryError) as log:
        for s in spans:
            log.append(s)
    with open(os.path.join(out_dir, _TRACE), "w") as fh:
        json.dump(chrome_trace_events(spans), fh)
    with open(os.path.join(out_dir, _METRICS), "w") as fh:
        json.dump(tel.metrics.to_dict(), fh, indent=2, sort_keys=True)
    dump_timelines(tel.timelines, os.path.join(out_dir, _TIMELINE))
    with open(os.path.join(out_dir, _RESULTS), "w") as fh:
        json.dump(results or {}, fh, indent=2, sort_keys=True)
    logger.info("telemetry artifact written to %s (%d spans, %d timelines)",
                out_dir, len(spans), len(tel.timelines))
    return out_dir


def _read_json(path: str) -> object:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise TelemetryError(f"telemetry artifact is missing {path}") from None
    except json.JSONDecodeError as exc:
        raise TelemetryError(f"telemetry file {path} is not valid JSON: {exc}") from None


def load_artifact(path: str) -> RunArtifact:
    """Load an exported artifact directory back into a :class:`RunArtifact`."""
    if not os.path.isdir(path):
        raise TelemetryError(f"no telemetry artifact directory at {path!r}")
    meta = _read_json(os.path.join(path, _META))
    if not isinstance(meta, dict) or "artifact_version" not in meta:
        raise TelemetryError(f"{path}/{_META} lacks an artifact_version")
    if meta["artifact_version"] > ARTIFACT_VERSION:
        raise TelemetryError(
            f"artifact version {meta['artifact_version']} is newer than "
            f"this reader (supports <= {ARTIFACT_VERSION})"
        )
    spans: list[dict] = []
    for where, span in read_jsonl(os.path.join(path, _SPANS), TelemetryError):
        if not isinstance(span, dict) or "name" not in span:
            raise TelemetryError(f"{where} is not a span object")
        spans.append(span)
    metrics = _read_json(os.path.join(path, _METRICS))
    if not isinstance(metrics, dict):
        raise TelemetryError(f"{path}/{_METRICS} must hold an object")
    timelines = load_timelines(os.path.join(path, _TIMELINE))
    results = _read_json(os.path.join(path, _RESULTS))
    if not isinstance(results, dict):
        raise TelemetryError(f"{path}/{_RESULTS} must hold an object")
    return RunArtifact(
        meta=meta, spans=spans, metrics=metrics,
        timelines=timelines, results=results,
    )


def validate_chrome_trace(events: object) -> list[dict]:
    """Check the Perfetto-loadable shape: a list of complete events.

    Every event must carry ``name``/``ph``/``ts``/``dur``/``pid``/``tid``
    with numeric times.  Returns the events on success.
    """
    if not isinstance(events, list):
        raise TelemetryError("chrome trace must be a JSON array of events")
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            raise TelemetryError(f"trace event {i} is not an object")
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            if key not in e:
                raise TelemetryError(f"trace event {i} is missing {key!r}")
        if e["ph"] != "X":
            raise TelemetryError(f"trace event {i} has phase {e['ph']!r}, expected 'X'")
        for key in ("ts", "dur"):
            if not isinstance(e[key], (int, float)):
                raise TelemetryError(f"trace event {i}: {key} must be numeric")
    return events
