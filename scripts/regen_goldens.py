#!/usr/bin/env python
"""Regenerate the golden regression fixtures under ``tests/golden/``.

Four fixtures pin the numeric behaviour of the pipeline:

* ``table1_features.json`` — the hottest-channel Table I feature vectors
  for a stride-sampled slice of the 192-config training grid;
* ``classifier_tree.json`` — the serialized CART tree learned from the
  full default training set;
* ``engine_intervals.json`` — interval-level engine output (per-interval
  bucket-rate digests, node/channel byte counts) plus the full
  uncontended latency table for two pinned topologies.  This one is
  byte-exact: the digests hash the raw float bytes, so it fails on a
  single flipped mantissa bit anywhere in the engine;
* ``profile_digests.json`` — digests of the batch and live profilers'
  sample columns, streamed intervals and quarantine ledgers, clean and
  under the ``standard`` fault plan, for two pinned cases.  Byte-exact
  like the interval fixture.

``tests/test_golden.py`` compares fresh runs against these files (the
first two at 1e-9 absolute tolerance, the last two exactly).
Rerun this script (``PYTHONPATH=src python scripts/regen_goldens.py``)
only when a deliberate modelling change moves the numbers, and call out
the refreshed fixtures in the PR description.
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for tests.golden_intervals

from repro.core.training import (  # noqa: E402
    all_training_configs,
    collect_training_set,
    train_default_classifier,
)
from repro.numasim.machine import Machine  # noqa: E402
from repro.parallel import config_hash, training_workload_spec  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
SEED = 0
#: Every 24th config: covers all three mini-programs, both labels, and
#: the bandit runs without dragging the whole grid into the fixture.
CONFIG_STRIDE = 24


def build_feature_golden() -> dict:
    machine = Machine()
    configs = all_training_configs()[::CONFIG_STRIDE]
    instances = collect_training_set(machine, configs=configs, seed=SEED)
    entries = []
    for inst in instances:
        entries.append(
            {
                "spec_hash": config_hash(training_workload_spec(inst.config)),
                "program": inst.config.program,
                "n_threads": inst.config.n_threads,
                "n_nodes": inst.config.n_nodes,
                "label": inst.label.value,
                "channel": (
                    [inst.channel.src, inst.channel.dst] if inst.channel else None
                ),
                "features": {
                    name: float(inst.features[name])
                    for name in inst.features.names
                },
            }
        )
    return {"seed": SEED, "config_stride": CONFIG_STRIDE, "instances": entries}


def build_tree_golden() -> dict:
    clf, _ = train_default_classifier(Machine(), seed=SEED)
    return {"seed": SEED, "model": clf.to_dict()}


def build_interval_golden() -> dict:
    from tests.golden_intervals import build_interval_golden as _build

    return _build()


def build_profile_golden() -> dict:
    from tests.golden_profiles import build_profile_golden as _build

    return _build()


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, payload in (
        ("table1_features.json", build_feature_golden()),
        ("classifier_tree.json", build_tree_golden()),
        ("engine_intervals.json", build_interval_golden()),
        ("profile_digests.json", build_profile_golden()),
    ):
        path = GOLDEN_DIR / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
