"""MetricsServer serves the current render at ``/metrics``.

The bind/lifecycle/error contract it shares with the fleet and service
servers is pinned for all three in ``tests/test_httpapp.py``; the
start-rejection cases below check the same contract for the monitor's
own :class:`MonitorError`.
"""

from __future__ import annotations

import urllib.request

import pytest

from repro.errors import MonitorError
from repro.monitor.httpserver import MetricsServer


def test_serve_and_stop_round_trip():
    server = MetricsServer(lambda: "# HELP x x\n")
    with server:
        body = urllib.request.urlopen(server.url, timeout=5).read()
    assert b"HELP" in body


def test_start_after_stop_is_rejected():
    server = MetricsServer(lambda: "")
    server.stop()
    with pytest.raises(MonitorError):
        server.start()


def test_double_start_is_rejected():
    with MetricsServer(lambda: "") as server:
        with pytest.raises(MonitorError):
            server.start()
