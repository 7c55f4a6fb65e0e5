"""Helpers shared by the table/figure benchmarks."""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any

import numpy as np

#: Envelope schema for the per-result JSON twins under benchmarks/results/.
RESULT_SCHEMA = "drbw-bench-result"
RESULT_SCHEMA_VERSION = 1


def jsonable(value: Any) -> Any:
    """Coerce a benchmark result value into plain JSON types.

    Handles the shapes the experiment drivers actually return: nested
    dataclasses, numpy scalars and arrays, mappings keyed by non-string
    objects (``Channel``, ``Mode``), and tuples/sets.  Anything else
    falls back to ``str`` so emission never fails on an exotic value.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        # Set iteration order is arbitrary (and, for strings, varies with
        # the per-process hash salt) — sort so emitted JSON is stable.
        return sorted(jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def save_and_print(
    results_dir: pathlib.Path, name: str, text: str, data: Any = None
) -> None:
    """Persist one regenerated table and echo it to the terminal.

    When ``data`` is given, a machine-readable twin lands next to the
    text rendering as ``<name>.json``, so CI artifacts and later
    comparisons need not re-parse human-formatted tables.
    """
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    if data is not None:
        envelope = {
            "schema": RESULT_SCHEMA,
            "schema_version": RESULT_SCHEMA_VERSION,
            "result": name,
            "data": jsonable(data),
        }
        (results_dir / f"{name}.json").write_text(
            json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        )
    print(f"\n=== {name} ===\n{text}\n[saved to {path}]")

