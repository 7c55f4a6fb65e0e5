"""Artifact export/load, metadata, error paths, and dashboard round-trip."""

import json

import pytest

from repro.errors import ReproError, TelemetryError
from repro.faults import FAULT_PRESETS
from repro.numasim.machine import Machine
from repro.telemetry import Telemetry, session
from repro.telemetry.artifact import (
    ARTIFACT_VERSION,
    collect_metadata,
    export_artifact,
    load_artifact,
    topology_hash,
)
from repro.telemetry.dashboard import render_dashboard
from repro.telemetry.timeline import capture_run_timelines
from repro.workloads.runner import run_workload

from tests.conftest import MB, make_stream_workload


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """A populated artifact directory from one small instrumented run."""
    out = tmp_path_factory.mktemp("artifact") / "run"
    machine = Machine()
    tel = Telemetry()
    with session(tel):
        with tel.span("profiler.profile", workload="wl") as sp:
            run = run_workload(
                make_stream_workload(size_bytes=64 * MB, accesses=200_000.0),
                machine, n_threads=4, n_nodes=2,
            )
            sp.set(kept=123)
        tel.metrics.counter("profiler.samples.observed").inc(123)
        tel.metrics.histogram("profiler.remote_latency.1->0").observe(350.0)
        tel.timelines.extend(capture_run_timelines(run.result))
    meta = collect_metadata(
        "detect", 7, machine.topology,
        faults=FAULT_PRESETS["standard"],
        benchmark="wl", input="small", config="T4-N2",
    )
    results = {
        "channel_verdicts": [
            {"channel": "1->0", "label": "rmc", "mode": "rmc",
             "confidence": 0.9, "n_remote_samples": 88,
             "insufficient_data": False},
        ],
        "case_verdict": "rmc",
        "degradation": {
            "observed": 123, "kept": 120,
            "quarantined": {"unmapped_address": 3}, "injected": {"dropped": 5},
            "drop_fraction": 3 / 123, "resample_attempts": 1,
            "resampled_channels": ["1->0"],
        },
        "diagnosis": None,
    }
    export_artifact(str(out), tel, meta, results)
    return str(out)


class TestMetadata:
    def test_carries_reproducibility_fields(self, exported):
        meta = load_artifact(exported).meta
        assert meta["artifact_version"] == ARTIFACT_VERSION
        assert meta["seed"] == 7
        assert meta["command"] == "detect"
        assert meta["package_version"]
        assert meta["fault_plan"]["describe"] == FAULT_PRESETS["standard"].describe()
        assert "drop" in str(meta["fault_plan"]["fields"])

    def test_topology_hash_is_stable_and_parameter_sensitive(self):
        import dataclasses

        topo = Machine().topology
        assert topology_hash(topo) == topology_hash(Machine().topology)
        other = dataclasses.replace(topo, n_sockets=topo.n_sockets + 1)
        assert topology_hash(other) != topology_hash(topo)

    def test_clean_run_has_null_fault_plan(self, tmp_path):
        tel = Telemetry()
        meta = collect_metadata("train", 0, Machine().topology)
        export_artifact(str(tmp_path / "a"), tel, meta, {})
        assert load_artifact(str(tmp_path / "a")).meta["fault_plan"] is None


class TestRoundTrip:
    def test_export_load_reexport_dashboards_are_identical(self, exported, tmp_path):
        first = load_artifact(exported)
        copy = tmp_path / "copy"
        tel = Telemetry()
        # Rebuild a session from the loaded artifact and re-export it.
        from repro.telemetry.spans import SpanRecord

        tel.tracer.records = [SpanRecord.from_dict(s) for s in first.spans]
        for name, v in first.metrics["counters"].items():
            tel.metrics.counter(name).inc(v)
        for name, h in first.metrics["histograms"].items():
            hist = tel.metrics.histogram(name, tuple(h["boundaries"]))
            hist.counts = list(h["counts"])
            hist.count, hist.sum = h["count"], h["sum"]
            hist.min = h["min"] if h["min"] is not None else float("inf")
            hist.max = h["max"] if h["max"] is not None else float("-inf")
        tel.timelines.extend(first.timelines)
        export_artifact(str(copy), tel, first.meta, first.results)
        second = load_artifact(str(copy))
        assert render_dashboard(second) == render_dashboard(first)

    def test_dashboard_shows_every_section(self, exported):
        text = render_dashboard(load_artifact(exported))
        for needle in (
            "stage timings", "profiler.profile", "kept=123",
            "channel timelines", "1->0",
            "pipeline metrics", "profiler.samples.observed",
            "channel verdicts", "case verdict: rmc",
            "degradation counters", "unmapped_address",
            "resample attempts: 1",
            "fault plan",
        ):
            assert needle in text, needle

    def test_engine_span_counters(self, exported):
        """The artifact explains the engine's solve: spans solved, the
        threads they ran and the symmetry classes priced in their place
        (the fixture's 4 threads on 2 nodes form one class per node)."""
        counters = load_artifact(exported).metrics["counters"]
        spans = counters["engine.spans"]
        assert spans == counters["engine.intervals"] >= 1
        assert counters["engine.span_threads"] >= spans
        assert spans <= counters["engine.span_classes"] <= 2 * spans
        assert counters["engine.span_classes"] < counters["engine.span_threads"]

    def test_spans_jsonl_round_trips_exactly(self, exported):
        art = load_artifact(exported)
        dumped = [json.loads(json.dumps(s)) for s in art.spans]
        assert dumped == art.spans


class TestErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(TelemetryError, match="no telemetry artifact"):
            load_artifact(str(tmp_path / "nope"))

    def test_missing_file(self, exported, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(exported, broken)
        (broken / "metrics.json").unlink()
        with pytest.raises(TelemetryError, match="missing"):
            load_artifact(str(broken))

    def test_malformed_span_line(self, exported, tmp_path):
        import shutil

        broken = tmp_path / "badspan"
        shutil.copytree(exported, broken)
        (broken / "spans.jsonl").write_text('{"name": "ok"}\n{oops\n')
        with pytest.raises(TelemetryError, match="spans.jsonl:2"):
            load_artifact(str(broken))

    def test_newer_artifact_version_is_refused(self, exported, tmp_path):
        import shutil

        broken = tmp_path / "future"
        shutil.copytree(exported, broken)
        meta = json.loads((broken / "meta.json").read_text())
        meta["artifact_version"] = ARTIFACT_VERSION + 1
        (broken / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(TelemetryError, match="newer"):
            load_artifact(str(broken))

    def test_telemetry_error_is_a_repro_error(self):
        assert issubclass(TelemetryError, ReproError)
