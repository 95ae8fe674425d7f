"""Scrapeable HTTP metrics endpoint.

Stdlib-only (:mod:`http.server`): a daemon-threaded
``ThreadingHTTPServer`` serving

* ``GET /metrics`` — the fleet registry through
  :func:`repro.live.metrics.render_prometheus` (text exposition format
  0.0.4, the same renderer ``repro serve --metrics`` writes with), with
  ``shard``/``tenant`` labels on the per-shard and per-tenant series;
* ``GET /healthz`` — liveness probe;
* ``GET /fleet``  — the newest fleet snapshot as JSON.

The registry is re-built per scrape through a caller-supplied
callable, so the exporter never holds stale metric objects and never
touches pipeline state off the scheduler thread beyond reading
counters.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.live.metrics import MetricsRegistry, render_prometheus

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsExporter:
    """Daemon-threaded scrape endpoint over a registry factory."""

    def __init__(self,
                 registry_fn: Callable[[], MetricsRegistry],
                 host: str = "127.0.0.1", port: int = 0,
                 status_fn: Optional[Callable[[], Optional[dict]]]
                 = None) -> None:
        self.registry_fn = registry_fn
        self.status_fn = status_fn
        self.host = host
        self.port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def _handler_class(self):
        exporter = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *_args) -> None:
                pass  # scrapes must not spam the serve loop's stderr

            def _send(self, status: int, content_type: str,
                      body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        text = render_prometheus(
                            exporter.registry_fn())
                        self._send(200, CONTENT_TYPE,
                                   text.encode("utf-8"))
                    elif path == "/healthz":
                        self._send(200, "text/plain; charset=utf-8",
                                   b"ok\n")
                    elif path == "/fleet":
                        status = exporter.status_fn() \
                            if exporter.status_fn else None
                        body = json.dumps(
                            status if status is not None else {},
                            sort_keys=True).encode("utf-8")
                        self._send(
                            200, "application/json; charset=utf-8",
                            body)
                    else:
                        self._send(404,
                                   "text/plain; charset=utf-8",
                                   b"not found\n")
                except BrokenPipeError:  # scraper went away mid-write; nothing to surface
                    pass

        return Handler

    # ------------------------------------------------------------------
    def start(self) -> int:
        """Bind and serve in a daemon thread; returns the bound port
        (useful with ``port=0``)."""
        if self._server is not None:
            return self.port
        self._server = ThreadingHTTPServer(
            (self.host, self.port), self._handler_class())
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="fleet-metrics-exporter", daemon=True)
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsExporter":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
