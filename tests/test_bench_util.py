"""The benchmark result writer: text rendering plus a JSON twin."""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "benchmarks"))

from _util import RESULT_SCHEMA, jsonable, save_and_print  # noqa: E402


def test_save_and_print_emits_json_twin(tmp_path, capsys):
    save_and_print(tmp_path, "thing", "rendered", data={"x": (1, 2)})
    assert (tmp_path / "thing.txt").read_text() == "rendered\n"
    envelope = json.loads((tmp_path / "thing.json").read_text())
    assert envelope["schema"] == RESULT_SCHEMA
    assert envelope["result"] == "thing"
    assert envelope["data"] == {"x": [1, 2]}


def test_jsonable_handles_bench_shapes():
    import dataclasses

    import numpy as np

    from repro.types import Channel, Mode

    @dataclasses.dataclass
    class Row:
        label: str
        value: float

    coerced = jsonable({
        Channel(0, 1): Row("a", 1.5),
        "arr": np.arange(3),
        "scalar": np.float64(2.5),
        "mode": Mode.RMC,
    })
    assert coerced == {
        "0->1": {"label": "a", "value": 1.5},
        "arr": [0, 1, 2],
        "scalar": 2.5,
        "mode": str(Mode.RMC),
    }
