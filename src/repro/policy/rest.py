"""RESTful web interface of the Policy Service.

The paper deploys the service in an Apache Tomcat container behind a
RESTful interface exchanging XML/JSON.  We serve JSON over HTTP on
localhost with the Python standard library (no network access needed).

The routes, their payloads and their responses are declared once in
:mod:`repro.policy.operations` (its docstring holds the endpoint table);
this module is transport only.

Malformed payloads return 400 with ``{"error": ...}``; unknown paths 404;
bodies that stall past ``read_timeout`` mid-read 408 (connection closed);
bodies larger than ``max_request_bytes`` 413 (without reading the body);
requests arriving while the server drains for shutdown 503.

Connections that idle past ``idle_timeout`` between requests — or trickle
a request head slower than it — are closed without a response: the socket
timeout covers both, so a slow-loris client cannot pin a handler thread
indefinitely.

Observability
-------------
Every request carries a **request id**: the client's ``X-Repro-Request-Id``
header when present, a server-generated ``req-N`` otherwise.  The id is
echoed in the response header, included in every error body, recorded in
the per-request access log (host, method, path, status, wall-clock
latency; see :attr:`PolicyRestServer.access_log`), and attached to the
span emitted for the request — **including** 400/413/500/503 responses —
when the server is built with a tracer.  ``GET /policy/metrics`` serves
the service's registry in Prometheus text format.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.obs.tracer import as_tracer
from repro.policy.controller import PolicyController
from repro.policy.operations import PolicyRequestError, respond, route
from repro.policy.service import PolicyService

__all__ = ["PolicyRestServer"]

#: default cap on request bodies — far above any sane batch, far below
#: what would let one client exhaust server memory
DEFAULT_MAX_REQUEST_BYTES = 1024 * 1024


class _RequestTooLarge(Exception):
    """Body exceeds the configured cap (maps to HTTP 413)."""


class _BodyReadTimeout(Exception):
    """Body bytes stalled past ``read_timeout`` (maps to HTTP 408)."""


def _decode_json(raw: bytes) -> dict:
    """A request body as the JSON object every POST payload must be."""
    try:
        doc = json.loads(raw or b"{}")
    except json.JSONDecodeError as exc:
        raise PolicyRequestError(f"invalid JSON body: {exc}") from exc
    if not isinstance(doc, dict):
        raise PolicyRequestError("request body must be a JSON object")
    return doc


class _PolicyHTTPServer(ThreadingHTTPServer):
    """Threading server whose handler threads don't block shutdown.

    ``stop()`` drains in-flight requests explicitly (bounded by a
    timeout), so the per-thread joins of ``block_on_close`` would only
    add an unbounded second wait on a hung keep-alive connection.
    """

    daemon_threads = True
    block_on_close = False


def _make_handler(controller: PolicyController, lock: threading.Lock, server_state):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Socket timeout for the whole connection: bounds both the idle
        # wait between keep-alive requests and a trickled request head.
        # The stdlib's handle_one_request catches the TimeoutError and
        # closes the connection without a response.
        timeout = server_state.idle_timeout

        def log_message(self, *args) -> None:  # silence test output
            pass

        def _reply(self, code: int, doc: dict) -> None:
            self._send(code, json.dumps(doc).encode(), "application/json")

        def _send(self, code: int, body: bytes, content_type: str) -> None:
            self._status = code
            # Finalize the access-log entry and span before any response
            # byte goes out: a client that has observed the response must
            # find its entry in the log (error clients unblock on the
            # status line alone, not the body).
            self._finish_request()
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            rid = getattr(self, "_request_id", "")
            if rid:
                self.send_header("X-Repro-Request-Id", rid)
            self.end_headers()
            self.wfile.write(body)

        def _read_json(self) -> dict:
            length = server_state.body_length(self.headers.get("Content-Length", 0))
            raw = b""
            if length:
                # Tighten the socket timeout for the body read: a client
                # that sent a complete head must deliver the body it
                # declared promptly, or the request is abandoned with 408.
                if server_state.read_timeout is not None:
                    self.connection.settimeout(server_state.read_timeout)
                try:
                    raw = self.rfile.read(length)
                except TimeoutError as exc:
                    raise _BodyReadTimeout(
                        "timed out reading request body after "
                        f"{server_state.read_timeout}s"
                    ) from exc
                finally:
                    if server_state.read_timeout is not None:
                        self.connection.settimeout(server_state.idle_timeout)
            return _decode_json(raw)

        def _handle(self, work) -> None:
            rid = self.headers.get("X-Repro-Request-Id") or server_state.next_request_id()
            self._request_id = rid
            self._status = 0
            self._finished = False
            self._t0 = time.perf_counter()
            tracer = server_state.tracer
            self._span = None
            if tracer.enabled:
                self._span = tracer.begin(
                    "rest", f"{self.command} {self.path}", track="rest",
                    request_id=rid, host=self.client_address[0],
                )
            if not server_state.enter():
                self.close_connection = True
                self._reply(
                    503, {"error": "server is shutting down", "request_id": rid}
                )
                return
            try:
                work()
            except _BodyReadTimeout as exc:
                # Part of the body never arrived — the stream position is
                # unknowable, so the connection cannot be reused.
                self.close_connection = True
                self._reply(408, {"error": str(exc), "request_id": rid})
            except _RequestTooLarge as exc:
                # The oversized body was never read — this connection
                # cannot be reused.
                self.close_connection = True
                self._reply(413, {"error": str(exc), "request_id": rid})
            except PolicyRequestError as exc:
                # The body may be unread (bad framing) — do not reuse the
                # connection for a follow-up request.
                self.close_connection = True
                self._reply(400, {"error": str(exc), "request_id": rid})
            except Exception as exc:  # don't drop the connection on a bug
                self.close_connection = True
                self._reply(
                    500, {"error": f"internal error: {exc}", "request_id": rid}
                )
            finally:
                server_state.leave()
                self._finish_request()  # backstop if no reply was sent

        def _finish_request(self) -> None:
            if self._finished:
                return
            self._finished = True
            server_state.log_request({
                "request_id": self._request_id,
                "host": self.client_address[0],
                "method": self.command,
                "path": self.path,
                "status": self._status,
                "latency_s": time.perf_counter() - self._t0,
            })
            server_state.tracer.end(self._span, status=self._status)

        def _serve(self) -> None:
            def work():
                found = route(self.command, self.path)
                if found is None:
                    self._reply(404, {
                        "error": f"no such endpoint {self.path!r}",
                        "request_id": self._request_id,
                    })
                    return
                op, request = found
                if op.method == "POST":
                    request = (self._read_json(),)
                with lock:
                    result = getattr(controller, op.name)(*request)
                    self._send(*respond(op, result, self.path, self._request_id))

            self._handle(work)

        do_GET = do_POST = _serve

    return Handler


class _ServerState:
    """In-flight request accounting, request ids, and the access log."""

    def __init__(
        self,
        max_request_bytes: int,
        tracer=None,
        access_log_cap: int = 1024,
        idle_timeout: Optional[float] = 60.0,
        read_timeout: Optional[float] = 10.0,
    ):
        if max_request_bytes < 1:
            raise ValueError("max_request_bytes must be >= 1")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be > 0 (or None to disable)")
        if read_timeout is not None and read_timeout <= 0:
            raise ValueError("read_timeout must be > 0 (or None to disable)")
        self.max_request_bytes = int(max_request_bytes)
        self.tracer = as_tracer(tracer)
        self.idle_timeout = idle_timeout
        self.read_timeout = read_timeout
        self.access_log: list[dict] = []
        self._access_log_cap = int(access_log_cap)
        self._request_seq = 0
        self._lock = threading.Lock()
        self._in_flight = 0
        self._stopping = False
        self._idle = threading.Event()
        self._idle.set()

    def next_request_id(self) -> str:
        with self._lock:
            self._request_seq += 1
            return f"req-{self._request_seq}"

    def body_length(self, header) -> int:
        """The declared body size.  An oversized one is refused before any
        body byte is read: the declared size alone disqualifies it."""
        try:
            length = int(header)
        except (TypeError, ValueError) as exc:
            raise PolicyRequestError("Content-Length header must be an integer") from exc
        if length < 0:
            raise PolicyRequestError("Content-Length header must be >= 0")
        if length > self.max_request_bytes:
            raise _RequestTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.max_request_bytes}-byte limit"
            )
        return length

    def log_request(self, entry: dict) -> None:
        with self._lock:
            self.access_log.append(entry)
            overflow = len(self.access_log) - self._access_log_cap
            if overflow > 0:
                del self.access_log[:overflow]

    def enter(self) -> bool:
        with self._lock:
            if self._stopping:
                return False
            self._in_flight += 1
            self._idle.clear()
            return True

    def leave(self) -> None:
        with self._lock:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.set()

    def begin_stop(self) -> None:
        with self._lock:
            self._stopping = True
            if self._in_flight == 0:
                self._idle.set()

    def drain(self, timeout: float) -> bool:
        """Wait until in-flight requests finish; False on timeout."""
        return self._idle.wait(timeout)


class PolicyRestServer:
    """Threaded HTTP frontend around a :class:`PolicyService`.

    Usage::

        server = PolicyRestServer(service)      # port 0 = pick a free port
        server.start()
        ... HTTPPolicyClient(server.url) ...
        server.stop()

    A lock serializes requests into the (single-threaded) rule engine, so
    concurrent clients are safe.  Request bodies above
    ``max_request_bytes`` are refused with 413 before being read;
    connections idle (or trickling a request head) past ``idle_timeout``
    seconds are closed without a response; declared bodies that stall
    past ``read_timeout`` draw a 408 and a closed connection;
    :meth:`stop` first refuses new requests with 503, then waits up to
    ``drain_timeout`` seconds for in-flight ones to complete.  Either
    timeout may be ``None`` to disable it.
    """

    def __init__(
        self,
        service: PolicyService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        drain_timeout: float = 5.0,
        tracer=None,
        idle_timeout: Optional[float] = 60.0,
        read_timeout: Optional[float] = 10.0,
    ):
        if drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")
        self.service = service
        self.controller = PolicyController(service)
        self.drain_timeout = drain_timeout
        self._lock = threading.Lock()
        # A tracer given here should be wall-clock bound (e.g.
        # ``Tracer(clock=time.monotonic)``); defaults to the service's.
        self._state = _ServerState(
            max_request_bytes,
            tracer=tracer if tracer is not None else service.tracer,
            idle_timeout=idle_timeout,
            read_timeout=read_timeout,
        )
        self._httpd = _PolicyHTTPServer(
            (host, port), _make_handler(self.controller, self._lock, self._state)
        )
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def access_log(self) -> list[dict]:
        """One entry per handled request (request id, host, method, path,
        status, wall-clock latency), oldest first, bounded."""
        return list(self._state.access_log)

    def start(self) -> "PolicyRestServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> bool:
        """Stop accepting requests, drain in-flight ones, close the socket.

        Returns True when every in-flight request finished within
        ``drain_timeout``; False when the timeout expired and the server
        closed with requests still running (their daemon threads die with
        the process).
        """
        if self._thread is None:
            return True
        self._state.begin_stop()
        drained = self._state.drain(self.drain_timeout)
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        self._thread = None
        return drained

    def __enter__(self) -> "PolicyRestServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
