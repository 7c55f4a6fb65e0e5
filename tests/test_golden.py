"""Golden regression tests: seed-0 numerics pinned against fixtures.

``tests/golden/`` holds JSON snapshots of the Table I feature vectors
(for a stride-sampled slice of the training grid) and the learned CART
tree, both at seed 0.  A drift anywhere in the sampling → feature →
training pipeline shows up here as a numeric mismatch beyond 1e-9,
*before* it silently moves the reproduced tables.

Deliberate modelling changes refresh the fixtures with
``python scripts/regen_goldens.py`` (documented in the script header).
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from repro.core.training import all_training_configs, collect_training_set
from repro.numasim.machine import Machine
from repro.parallel import config_hash, training_workload_spec

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
ATOL = 1e-9


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text())


def assert_json_close(actual, expected, path="$"):
    """Recursive equality with 1e-9 absolute tolerance on floats."""
    if isinstance(expected, float) and not isinstance(expected, bool):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), (
            f"{path}: expected a number, got {actual!r}"
        )
        assert math.isclose(actual, expected, rel_tol=0.0, abs_tol=ATOL), (
            f"{path}: {actual!r} != {expected!r} (|diff| > {ATOL})"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected object, got {actual!r}"
        assert sorted(actual) == sorted(expected), (
            f"{path}: keys differ: {sorted(actual)} != {sorted(expected)}"
        )
        for key in expected:
            assert_json_close(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: expected array, got {actual!r}"
        assert len(actual) == len(expected), (
            f"{path}: length {len(actual)} != {len(expected)}"
        )
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_json_close(a, e, f"{path}[{i}]")
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def feature_golden() -> dict:
    return load_golden("table1_features.json")


def test_table1_feature_vectors_match_golden(feature_golden):
    stride = feature_golden["config_stride"]
    seed = feature_golden["seed"]
    configs = all_training_configs()[::stride]
    instances = collect_training_set(Machine(), configs=configs, seed=seed)
    assert len(instances) == len(feature_golden["instances"])
    for inst, expected in zip(instances, feature_golden["instances"]):
        spec_hash = config_hash(training_workload_spec(inst.config))
        assert spec_hash == expected["spec_hash"]
        assert inst.label.value == expected["label"]
        channel = [inst.channel.src, inst.channel.dst] if inst.channel else None
        assert channel == expected["channel"]
        actual = {
            name: float(inst.features[name]) for name in inst.features.names
        }
        assert_json_close(actual, expected["features"], f"$[{spec_hash[:12]}]")


def test_learned_tree_matches_golden(trained):
    golden = load_golden("classifier_tree.json")
    clf, _ = trained  # session-scoped seed-0 classifier from conftest
    assert_json_close(clf.to_dict(), golden["model"], "$.model")


def test_golden_fixtures_are_canonical():
    """The checked-in fixtures match their own serialization exactly.

    Guards against hand-edits that survive json.loads but would be
    rewritten by regen_goldens.py (key order, indentation, trailing
    newline).
    """
    for name in (
        "table1_features.json",
        "classifier_tree.json",
        "engine_intervals.json",
        "profile_digests.json",
    ):
        raw = (GOLDEN_DIR / name).read_text()
        assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"


def test_engine_interval_golden_regeneration_is_a_noop():
    """A fresh in-process rebuild of the interval-level fixture equals the
    checked-in file *exactly* — no tolerance.

    The fixture's bucket digests hash raw float64 bytes, so this pins the
    engine's streamed interval output (timings, node/channel byte counts,
    bucket-rate columns) and the precomputed latency table bit-for-bit
    for both reference topologies.  Running ``scripts/regen_goldens.py``
    on an unchanged tree must be a no-op; this test is that property.
    """
    from tests.golden_intervals import build_interval_golden

    expected = load_golden("engine_intervals.json")
    assert build_interval_golden() == expected


def test_profile_digest_golden_regeneration_is_a_noop():
    """A fresh rebuild of the profile-digest fixture equals the checked-in
    file exactly: the batch and live profilers' sample columns, streamed
    intervals and quarantine ledgers, clean and faulted, bit for bit."""
    from tests.golden_profiles import build_profile_golden

    assert build_profile_golden() == load_golden("profile_digests.json")
