"""Fleet HTTP plane: push ingest, scrape, rollup, error answers."""

from __future__ import annotations

import json
import random
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import FleetError
from repro.fleet.aggregator import FleetAggregator
from repro.fleet.http import FleetClient, FleetServer, parse_push_body
from repro.monitor.exposition import CONTENT_TYPE
from repro.parallel.seeding import canonical_json

from tests.fleet.conftest import interleave, make_fleet_streams


def test_parse_push_body_accepts_array_and_jsonl():
    records = [{"a": 1}, {"b": 2}]
    assert parse_push_body(json.dumps(records).encode()) == records
    jsonl = "\n".join(json.dumps(r) for r in records) + "\n\n"
    assert parse_push_body(jsonl.encode()) == records
    with pytest.raises(FleetError, match="empty"):
        parse_push_body(b"   ")
    with pytest.raises(FleetError, match="line 2"):
        parse_push_body(b'{"a": 1}\n{broken\n')
    with pytest.raises(FleetError, match="array"):
        parse_push_body(b"[{bad]")


def test_push_scrape_rollup_roundtrip():
    streams = make_fleet_streams(n_machines=3, windows=5, rmc_machines=2)
    direct = FleetAggregator(expected_machines=3)
    direct.ingest_many(interleave(streams))

    served = FleetAggregator(expected_machines=3)
    with FleetServer(served) as server:
        client = FleetClient(server.url)
        reply = client.push(interleave(streams))
        assert reply["accepted"] == 3 * 7
        assert reply["epochs"] == 5
        assert client.rollup() == direct.rollup()
        with urllib.request.urlopen(server.url + "/metrics", timeout=5) as r:
            assert r.headers["Content-Type"] == CONTENT_TYPE
            assert r.read().decode() == direct.render_metrics()
        with urllib.request.urlopen(server.url + "/healthz", timeout=5) as r:
            assert json.loads(r.read())["status"] == "ok"


def test_concurrent_pushers_equal_direct_ingest():
    """Many clients pushing per-machine batches in parallel: the rollup
    is byte-identical to serial in-process ingest."""
    streams = make_fleet_streams(n_machines=8, windows=6, rmc_machines=3)
    direct = FleetAggregator(expected_machines=8)
    direct.ingest_many(interleave(streams))

    served = FleetAggregator(expected_machines=8)
    errors: list[Exception] = []
    with FleetServer(served) as server:
        def push_machine(mid: str) -> None:
            try:
                client = FleetClient(server.url)
                recs = streams[mid]
                # Split each stream into a few bursts to mix arrival order.
                cuts = sorted(random.Random(mid).sample(range(1, len(recs)), 2))
                for lo, hi in zip([0, *cuts], [*cuts, len(recs)]):
                    client.push(recs[lo:hi])
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=push_machine, args=(mid,))
                   for mid in streams]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert errors == []
    assert canonical_json(served.rollup()) == canonical_json(direct.rollup())


def test_bad_records_answer_400_and_leave_state_clean():
    agg = FleetAggregator()
    with FleetServer(agg) as server:
        client = FleetClient(server.url)
        with pytest.raises(FleetError, match="400"):
            client.push([{"v": 1, "seq": 0, "kind": "bogus"}])
        with pytest.raises(FleetError, match="404"):
            client._request(urllib.request.Request(server.url + "/nope"))
        req = urllib.request.Request(
            server.url + "/v1/fleet/ingest", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=5)
        assert err.value.code == 400
    assert agg.records == 0

