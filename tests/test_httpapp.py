"""One contract for every server built on the HTTP app shell.

The monitor's :class:`MetricsServer`, the fleet's :class:`FleetServer`
and the profiling :class:`ServiceServer` all bind, serve, stop and answer
errors through :mod:`repro.httpapp`; each case below runs against all
three, so the lifecycle and error contract cannot drift apart again.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.errors import FleetError, MonitorError, ReproError, ServiceError
from repro.fleet.aggregator import FleetAggregator
from repro.fleet.http import FleetServer
from repro.monitor.httpserver import MetricsServer
from repro.service import ServiceQueue, ServiceServer


@dataclass(frozen=True)
class AppCase:
    make: Callable[[int], object]
    error: type[ReproError]
    post_path: str | None


def _service(port: int) -> ServiceServer:
    queue = ServiceQueue(executor=lambda spec: {"ok": True}, workers=1,
                         telemetry_enabled=False)
    return ServiceServer(queue, port=port)


CASES = {
    "metrics": AppCase(lambda port: MetricsServer(lambda: "# HELP x x\n", port=port),
                       MonitorError, None),
    "fleet": AppCase(lambda port: FleetServer(FleetAggregator(), port=port),
                     FleetError, "/v1/fleet/ingest"),
    "service": AppCase(_service, ServiceError, "/v1/jobs"),
}
POST_APPS = [name for name, case in CASES.items() if case.post_path]


@pytest.fixture(params=list(CASES))
def case(request) -> AppCase:
    return CASES[request.param]


@pytest.fixture
def occupied_port():
    """A TCP port held open by a plain socket for the test's duration."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    try:
        yield sock.getsockname()[1]
    finally:
        sock.close()


def assert_port_free(case: AppCase, port: int) -> None:
    """Rebinding ``port`` succeeds immediately: the old app released it."""
    case.make(port).stop()


def test_port_zero_is_read_back(case):
    app = case.make(0)
    try:
        assert app.port > 0
        assert f"127.0.0.1:{app.port}" in app.url
    finally:
        app.stop()


def test_occupied_port_is_typed_error(case, occupied_port):
    with pytest.raises(case.error, match="cannot bind") as exc_info:
        case.make(occupied_port)
    assert isinstance(exc_info.value, ReproError)  # CLI maps this to exit 2
    assert str(occupied_port) in str(exc_info.value)


def test_stop_without_start_releases_port(case):
    """Construction binds the port; stop() must release it even when the
    serving thread never ran (the startup-failed cleanup path)."""
    app = case.make(0)
    port = app.port
    app.stop()
    assert_port_free(case, port)


def test_stop_is_idempotent(case):
    app = case.make(0)
    app.start()
    app.stop()
    app.stop()  # second stop is a no-op, not an error
    assert_port_free(case, app.port)


def test_double_start_and_start_after_stop_are_rejected(case):
    app = case.make(0)
    app.start()
    with pytest.raises(case.error, match="already started"):
        app.start()
    app.stop()
    with pytest.raises(case.error, match="already stopped"):
        app.start()


def test_context_manager_releases_port_when_body_raises(case):
    app = case.make(0)
    port = app.port
    with pytest.raises(RuntimeError):
        with app:
            raise RuntimeError("boom")
    assert_port_free(case, port)


def test_unknown_route_is_404_json_error(case):
    with case.make(0) as app:
        base = f"http://127.0.0.1:{app.port}"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base}/no/such/route", timeout=5)
        assert err.value.code == 404
        assert err.value.headers["Content-Type"] == "application/json"
        assert "/no/such/route" in json.loads(err.value.read())["error"]


def raw_post(port: int, path: str, content_length: str | None) -> int:
    """POST with a hand-written ``Content-Length``; returns the status.

    The 5 s timeout turns a server blocked on the body into a failure
    instead of a hung test.
    """
    head = f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    if content_length is not None:
        head += f"Content-Length: {content_length}\r\n"
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall((head + "\r\n").encode() + b'{"kind": "detect"}')
        reply = sock.makefile("rb").readline()
    return int(reply.split()[1])


@pytest.mark.parametrize("name", POST_APPS)
@pytest.mark.parametrize("content_length", ["-1", "abc", None])
def test_bad_content_length_is_400(name, content_length):
    case = CASES[name]
    with case.make(0) as app:
        assert raw_post(app.port, case.post_path, content_length) == 400


@pytest.mark.parametrize("name", POST_APPS)
def test_oversized_body_is_413(name):
    case = CASES[name]
    with case.make(0) as app:
        too_long = str(type(app).max_body_bytes + 1)
        assert raw_post(app.port, case.post_path, too_long) == 413
