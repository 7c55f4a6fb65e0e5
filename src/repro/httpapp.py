"""One small HTTP app shell under every server in the package.

The profiling service (:mod:`repro.service.server`), the fleet plane
(:mod:`repro.fleet.http`) and the monitor's metrics endpoint
(:mod:`repro.monitor.httpserver`) are each an :class:`HttpApp` subclass
supplying :meth:`~HttpApp.route`.  The shell owns the rest, once: the
port-0 and ``SO_REUSEPORT`` binds with a typed bind error, the
start/serve/stop lifecycle, the JSON replies and error bodies of
:class:`Request`, and its one bounded body reader.  It is the only
module in the package that touches :mod:`http.server`.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ReproError

__all__ = ["HttpApp", "HttpError", "Request"]

logger = logging.getLogger(__name__)


class HttpError(Exception):
    """Raised inside a route: the shell answers ``{"error": message}``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Request(BaseHTTPRequestHandler):
    """One request, handed to the :class:`HttpApp` that owns the server."""

    server: _Server
    #: Status of the reply once :meth:`send` ran (``None`` before).
    status: int | None = None
    #: Headers an app adds to every reply of this request, after the
    #: content headers (the service's trace header).
    reply_headers: dict[str, str] = {}

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        self.server.app.handle(self, "GET", self.path.split("?", 1)[0])

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        self.server.app.handle(self, "POST", self.path.split("?", 1)[0])

    def send(self, status: int, body: bytes, content_type: str,
             headers: dict[str, str] | None = None) -> None:
        self.status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for k, v in self.reply_headers.items():
            self.send_header(k, v)
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)

    def send_json(self, status: int, payload: dict,
                  headers: dict[str, str] | None = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send(status, body, "application/json", headers)

    def fail(self, status: int, message: str,
             headers: dict[str, str] | None = None) -> None:
        """The JSON error reply, ``{"error": message}``."""
        self.send_json(status, {"error": message}, headers)

    def read_body(self) -> bytes:
        """The request body, bounded by the app's ``max_body_bytes``.

        Reading only ever trusts a well-formed length: ``rfile.read`` of
        a negative one would block until the client hangs up.
        """
        raw = self.headers.get("Content-Length")
        try:
            length = int(raw)
        except (TypeError, ValueError):
            length = -1
        if length < 0:
            raise HttpError(
                400, f"Content-Length must be a non-negative integer, got {raw!r}"
            )
        limit = self.server.app.max_body_bytes
        if length > limit:
            raise HttpError(413, f"body too large ({length} > {limit})")
        return self.rfile.read(length)

    def read_json(self) -> object:
        """The request body parsed as JSON (400 when it is not)."""
        body = self.read_body()
        try:
            return json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"body is not JSON: {exc}") from None

    def log_message(self, format: str, *args: object) -> None:
        logger.debug("%s http: " + format, self.server.app.label, *args)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: Listen backlog; socketserver's default of 5 drops bursts.
    request_queue_size = 128
    app: HttpApp


class HttpApp:
    """A bound listener plus its lifecycle; subclasses add :meth:`route`."""

    #: Raised for bind and lifecycle failures.
    error: type[ReproError] = ReproError
    #: What the app is called in messages, logs and its thread name.
    label = "http"
    #: Request bodies longer than this are answered 413.
    max_body_bytes = 1 << 20
    #: Bind with ``SO_REUSEPORT`` so several processes listen on one port
    #: and the kernel spreads connections across them; on a platform
    #: without it the bind fails with the app's error.
    reuse_port = False

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        server = _Server((host, port), Request, bind_and_activate=False)
        server.app = self
        try:
            if self.reuse_port:
                if not hasattr(socket, "SO_REUSEPORT"):
                    raise OSError("SO_REUSEPORT is not available on this platform")
                server.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            server.server_bind()
            server.server_activate()
        except OSError as exc:
            server.server_close()
            raise self.error(
                f"cannot bind {self.label} on {host}:{port}: {exc}"
            ) from exc
        self._server = server
        self._thread: threading.Thread | None = None
        self._started = False
        self._closed = False

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._server.server_address[0]}:{self.port}"

    # -- requests -----------------------------------------------------------------

    def handle(self, req: Request, method: str, path: str) -> None:
        """Run :meth:`route`, answering a raised :class:`HttpError`.

        Anything else a route raises is logged and, if nothing was sent
        yet, answered 500 — a bug must not reset the connection silently.
        """
        try:
            self.route(req, method, path)
        except HttpError as exc:
            req.fail(exc.status, str(exc))
        except Exception:  # noqa: BLE001 - one bad request must not go unanswered
            logger.exception("%s: %s %s failed", self.label, method, path)
            if req.status is None:
                req.fail(500, "internal error")

    def route(self, req: Request, method: str, path: str) -> None:
        """Answer one request; subclasses fall through here for a 404."""
        raise HttpError(404, f"no route for {path}")

    # -- lifecycle ----------------------------------------------------------------

    def on_start(self) -> None:
        """Hook: runs once, just before the app starts serving."""

    def on_close(self) -> None:
        """Hook: runs once, just before the socket closes."""

    def _begin(self) -> None:
        if self._closed:
            raise self.error(f"{self.label} already stopped")
        if self._started:
            raise self.error(f"{self.label} already started")
        self._started = True
        self.on_start()

    def start(self):
        """Serve on a daemon thread; returns ``self``."""
        self._begin()
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=f"drbw-{self.label}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until the loop is shut down; then close."""
        self._begin()
        try:
            self._server.serve_forever()
        finally:
            self._close()

    def stop(self) -> None:
        """Stop serving and release the socket; idempotent."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._server.shutdown()
            thread.join(timeout=30.0)
            if thread.is_alive():  # pragma: no cover - defensive
                logger.warning("%s thread did not exit within 30s", self.label)
        self._close()

    def _close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self.on_close()
            finally:
                self._server.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
