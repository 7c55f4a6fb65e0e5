"""Zero-dependency ``/metrics`` endpoint on the package's HTTP app shell.

A :class:`MetricsServer` serves a render callable (normally
``lambda: render_prometheus(registry)``) at ``/metrics``; binding, the
daemon thread, port-0 readback and stop come from
:class:`~repro.httpapp.HttpApp`.  Rendering happens per request, so a
scrape always sees the current registry state.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import MonitorError
from repro.httpapp import HttpApp, Request
from repro.monitor.exposition import CONTENT_TYPE

__all__ = ["MetricsServer"]


class MetricsServer(HttpApp):
    """Serve exposition text at ``http://host:port/metrics``."""

    error = MonitorError
    label = "metrics endpoint"

    def __init__(
        self,
        render: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._render = render
        super().__init__(host, port)

    @property
    def url(self) -> str:
        return f"{super().url}/metrics"

    def route(self, req: Request, method: str, path: str) -> None:
        if method == "GET" and path in ("/metrics", "/"):
            req.send(200, self._render().encode("utf-8"), CONTENT_TYPE)
            return
        super().route(req, method, path)
