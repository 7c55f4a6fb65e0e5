"""Fuzz the JSON loaders: malformed input must fail typed, never crash.

Every external JSON surface — trained-model files and alert-rule
files — is fed seeded-random mutations and junk documents.  The
contract under test: loaders either succeed (a mutation can be benign)
or raise the documented :class:`~repro.errors.ReproError` subclass; a
``KeyError``, ``TypeError``, ``IndexError`` or ``AttributeError``
escaping a loader is a bug.
"""

from __future__ import annotations

import copy
import json
import pathlib
import random

import pytest

from repro.core.classifier import DrBwClassifier, validate_model_dict
from repro.errors import ModelError, MonitorError, ReproError
from repro.monitor.alerts import parse_alert_rules

GOLDEN_MODEL = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "classifier_tree.json").read_text()
)["model"]

JUNK_VALUES = (None, True, False, 3, -1.5, "junk", [], {}, [1, [2, [3]]],
               {"nested": {"deep": None}})


def random_json(rng: random.Random, depth: int = 0):
    """An arbitrary JSON value, geometrically shallower with depth."""
    roll = rng.random()
    if depth >= 3 or roll < 0.4:
        return rng.choice(JUNK_VALUES)
    if roll < 0.7:
        return [random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {
        f"k{rng.randint(0, 9)}": random_json(rng, depth + 1)
        for _ in range(rng.randint(0, 3))
    }


def mutate(doc, rng: random.Random):
    """One random structural mutation of a JSON document (deep-copied)."""
    doc = copy.deepcopy(doc)
    # Collect every (container, key) site in the document.
    sites = []

    def walk(node):
        if isinstance(node, dict):
            for k, v in node.items():
                sites.append((node, k))
                walk(v)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                sites.append((node, i))
                walk(v)

    walk(doc)
    if not sites:
        return rng.choice(JUNK_VALUES)
    container, key = rng.choice(sites)
    action = rng.random()
    if action < 0.4:
        container[key] = rng.choice(JUNK_VALUES)  # type-confuse the value
    elif action < 0.7 and isinstance(container, dict):
        del container[key]  # drop a field
    elif isinstance(container, list) and container:
        del container[rng.randrange(len(container))]  # truncate
    else:
        container[key] = random_json(rng)
    return doc


FORBIDDEN = (KeyError, TypeError, IndexError, AttributeError, ValueError)


def assert_total(fn, doc, allowed):
    """``fn(doc)`` either succeeds or raises exactly an ``allowed`` error."""
    try:
        fn(doc)
    except allowed:
        pass
    except FORBIDDEN as exc:  # pragma: no cover - the failure being hunted
        pytest.fail(
            f"{fn.__qualname__} leaked {type(exc).__name__}: {exc!r} "
            f"on {json.dumps(doc, default=str)[:200]}"
        )


def test_model_from_dict_survives_mutations():
    rng = random.Random(0xD0_0D)
    validate_model_dict(copy.deepcopy(GOLDEN_MODEL))  # the base is valid
    for _ in range(150):
        assert_total(DrBwClassifier.from_dict, mutate(GOLDEN_MODEL, rng),
                     ModelError)


def test_model_from_dict_survives_junk_documents():
    rng = random.Random(0xBEEF)
    for doc in (*JUNK_VALUES, *(random_json(rng) for _ in range(50))):
        assert_total(DrBwClassifier.from_dict, doc, ModelError)


def test_model_load_failures_are_model_errors(tmp_path):
    with pytest.raises(ModelError):
        DrBwClassifier.load(str(tmp_path / "absent.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ModelError):
        DrBwClassifier.load(str(broken))
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(["a", "list"]))
    with pytest.raises(ModelError):
        DrBwClassifier.load(str(wrong))
    # And a valid file still loads.
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOLDEN_MODEL))
    clf = DrBwClassifier.load(str(good))
    assert clf.to_dict() == GOLDEN_MODEL


VALID_RULE = {"name": "hot", "signal": "remote_share", "threshold": 0.5}


def test_alert_rules_survive_mutations_and_junk():
    rng = random.Random(0xA1E7)
    assert parse_alert_rules([VALID_RULE])  # the base is valid
    for _ in range(100):
        assert_total(parse_alert_rules, mutate([VALID_RULE], rng), MonitorError)
    for doc in (*JUNK_VALUES, *(random_json(rng) for _ in range(50))):
        assert_total(parse_alert_rules, doc, MonitorError)


def test_cli_rules_loader_failures_are_monitor_errors(tmp_path):
    from repro.commands.monitor import _load_rules

    with pytest.raises(MonitorError):
        _load_rules(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("][")
    with pytest.raises(MonitorError):
        _load_rules(str(bad))
    not_a_list = tmp_path / "obj.json"
    not_a_list.write_text(json.dumps({"name": "x"}))
    with pytest.raises(MonitorError):
        _load_rules(str(not_a_list))


def test_all_loader_errors_are_repro_errors():
    """The CLI catches ReproError; every loader error must be one."""
    for exc_type in (ModelError, MonitorError):
        assert issubclass(exc_type, ReproError)
