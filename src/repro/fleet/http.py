"""HTTP push ingest + scrape plane for the fleet aggregator.

One :class:`~repro.fleet.aggregator.FleetAggregator` served on the
package's HTTP app shell (:mod:`repro.httpapp`, shared with the
profiling service and the monitor's metrics endpoint):

``POST /v1/fleet/ingest``  body is wire records — a JSON array or JSONL
                           — ingested in body order (per-machine order
                           is what matters; cross-machine interleaving
                           is free);
``GET  /metrics``          the fleet Prometheus exposition;
``GET  /v1/fleet/rollup``  the rollup document as canonical JSON;
``GET  /healthz``          liveness.

A bad record, an empty body or a bad ``Content-Length`` answers 400
with the message, a body over ``MAX_BODY_BYTES`` 413; everything about
the aggregator is lock-protected, so concurrent pushers are safe.
:class:`FleetClient` is the matching urllib-based pusher.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from repro.errors import FleetError
from repro.fleet.aggregator import FleetAggregator
from repro.httpapp import HttpApp, HttpError, Request
from repro.monitor.exposition import CONTENT_TYPE
from repro.parallel.seeding import canonical_json

__all__ = ["FleetClient", "FleetServer", "MAX_BODY_BYTES"]

#: Push bodies are batches of small records; 8 MiB is plenty.
MAX_BODY_BYTES = 8 << 20


def parse_push_body(body: bytes) -> list[dict]:
    """Decode a push body: a JSON array, one object, or JSONL lines."""
    text = body.decode("utf-8", errors="replace").strip()
    if not text:
        raise FleetError("empty ingest body")
    if text.startswith("["):
        try:
            records = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FleetError(f"malformed JSON array body: {exc}") from exc
        return records
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise FleetError(f"ingest body line {lineno}: {exc}") from exc
    return records


class FleetServer(HttpApp):
    """Serve one aggregator's ingest + scrape endpoints."""

    error = FleetError
    label = "fleet endpoint"
    max_body_bytes = MAX_BODY_BYTES

    def __init__(
        self,
        aggregator: FleetAggregator,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.aggregator = aggregator
        super().__init__(host, port)

    def route(self, req: Request, method: str, path: str) -> None:
        if method == "GET":
            if path in ("/metrics", "/"):
                body = self.aggregator.render_metrics().encode("utf-8")
                req.send(200, body, CONTENT_TYPE)
                return
            if path == "/v1/fleet/rollup":
                # Canonical bytes: CI compares this with the rollup file.
                body = canonical_json(self.aggregator.rollup()) + "\n"
                req.send(200, body.encode("utf-8"), "application/json")
                return
            if path == "/healthz":
                req.send_json(200, {"status": "ok"})
                return
        elif path == "/v1/fleet/ingest":
            try:
                records = parse_push_body(req.read_body())
                self.aggregator.ingest_many(records)
            except FleetError as exc:
                raise HttpError(400, str(exc)) from None
            req.send_json(
                200, {"accepted": len(records), "epochs": self.aggregator.epochs}
            )
            return
        super().route(req, method, path)


class FleetClient:
    """Push wire records to a :class:`FleetServer` over HTTP."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, req: urllib.request.Request) -> dict:
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", errors="replace").strip()
            raise FleetError(
                f"fleet server answered {exc.code}: {detail}"
            ) from exc
        except OSError as exc:
            raise FleetError(f"cannot reach fleet server: {exc}") from exc

    def push(self, records: list[dict]) -> dict:
        body = "\n".join(json.dumps(r, sort_keys=True) for r in records)
        req = urllib.request.Request(
            f"{self.base_url}/v1/fleet/ingest",
            data=body.encode("utf-8"),
            headers={"Content-Type": "application/jsonl"},
            method="POST",
        )
        return self._request(req)

    def rollup(self) -> dict:
        req = urllib.request.Request(f"{self.base_url}/v1/fleet/rollup")
        return self._request(req)
