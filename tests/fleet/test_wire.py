"""Wire format: record validation, MachineFeed bridging, rotating logs."""

from __future__ import annotations

import pytest

from repro.errors import FleetError
from repro.fleet.identity import MachineIdentity
from repro.fleet.wire import (
    MachineFeed,
    WireLog,
    read_wire,
    validate_wire_record,
)
from repro.jsonl import segments as log_segments

from tests.fleet.conftest import make_stream


def _identity(mid: str = "m000") -> MachineIdentity:
    return MachineIdentity(
        machine_id=mid,
        topology="topo-abc",
        workload="contend",
        config="T8-N2",
        seed=7,
    )


def test_synthetic_streams_validate():
    for record in make_stream("m000", windows=3, rmc=(1,)):
        assert validate_wire_record(record) is record


def test_validate_rejects_bad_records():
    good = make_stream("m000", windows=1)[1]
    with pytest.raises(FleetError, match="kind"):
        validate_wire_record({"v": 1, "seq": 0, "kind": "nope"})
    with pytest.raises(FleetError, match="machine_id"):
        validate_wire_record(dict(good, machine_id=""))
    with pytest.raises(FleetError, match="missing keys"):
        bad = dict(good, channels={"1->0": {"share": 0.5}})
        validate_wire_record(bad)
    with pytest.raises(FleetError, match="not an object"):
        validate_wire_record(dict(good, channels={"1->0": 3}))
    with pytest.raises(FleetError):
        validate_wire_record("not a dict")


def test_machine_feed_builds_ordered_stream():
    records: list[dict] = []
    feed = MachineFeed(_identity(), records.append)
    feed.hello(2)
    assert feed.records == 1
    assert records[0]["kind"] == "fleet_hello"
    assert records[0]["identity"]["topology"] == "topo-abc"
    assert [r["seq"] for r in records] == [0]
    # The identity on the wire round-trips exactly.
    assert MachineIdentity.from_dict(records[0]["identity"]) == _identity()


def test_wire_log_roundtrip_and_rotation(tmp_path):
    path = tmp_path / "wire.jsonl"
    stream = make_stream("m000", windows=50, rmc=range(10, 40))
    with WireLog(path, max_bytes=4096, keep_segments=2) as log:
        for record in stream:
            log.append(record)
    assert len(log_segments(path)) > 1
    replayed = list(read_wire(path))
    # Rotation keeps a contiguous tail ending at the bye.
    assert replayed[-1]["kind"] == "fleet_bye"
    seqs = [r["seq"] for r in replayed]
    assert seqs == list(range(seqs[0], 52))


def test_wire_log_rejects_monitor_kinds(tmp_path):
    with WireLog(tmp_path / "wire.jsonl") as log:
        with pytest.raises(FleetError):
            log.append(
                {"v": 1, "seq": 0, "kind": "monitor_started",
                 "window_intervals": 4, "n_nodes": 2}
            )


def test_read_wire_validates(tmp_path):
    path = tmp_path / "wire.jsonl"
    path.write_text('{"v": 1, "seq": 0, "kind": "fleet_hello"}\n')
    with pytest.raises(FleetError, match="missing keys"):
        list(read_wire(path))
    with pytest.raises(FleetError, match="not found"):
        list(read_wire(tmp_path / "missing.jsonl"))


def test_identity_validation():
    with pytest.raises(FleetError, match="machine_id"):
        MachineIdentity(machine_id="", topology="t", workload="w",
                        config="c", seed=0)
    with pytest.raises(FleetError, match="seed"):
        MachineIdentity(machine_id="m", topology="t", workload="w",
                        config="c", seed=True)
    with pytest.raises(FleetError, match="unknown"):
        MachineIdentity.from_dict(
            dict(_identity().to_dict(), extra="nope")
        )
