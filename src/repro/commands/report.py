"""``drbw report``: render the text dashboard for a telemetry artifact."""

from __future__ import annotations

from repro.telemetry.artifact import load_artifact
from repro.telemetry.dashboard import render_dashboard, render_stage_table


def cmd_report(args) -> int:
    artifact = load_artifact(args.artifact)
    if args.stages:
        print(render_stage_table(artifact.spans))
        return 0
    print(render_dashboard(artifact))
    return 0
