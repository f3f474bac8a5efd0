"""Asyncio REST frontend of the Policy Service.

Same HTTP surface as :mod:`repro.policy.rest` (the one route table of
:mod:`repro.policy.operations`, whose docstring lists the endpoints; the
same request-id / access-log / tracing / drain semantics), but served by
a single-threaded ``asyncio.start_server`` loop instead of a thread per
connection:

* **Keep-alive + pipelining** — a client may write many requests
  back-to-back on one connection without waiting for responses; the
  server parses them sequentially and writes the responses in order.
  A workflow manager submitting a burst of advice batches pays one
  round-trip for the whole burst instead of one per call.
* **No handler threads** — requests are serialized *by the event loop*
  on their way into the single-threaded rule engine, so the per-request
  lock handoff and thread wake-up of the threaded frontend disappear
  from the hot path (see ``benchmarks/bench_rules.py`` scenario
  ``rest_concurrency``).

The blocking service call runs on the loop thread by design: policy
evaluation is the work the server exists to do, and interleaving it with
request parsing would only add queueing.  The loop runs in a background
thread so ``start()`` / ``stop()`` look exactly like
:class:`~repro.policy.rest.PolicyRestServer`'s.

Error mapping is identical to the threaded frontend: malformed payloads
400, unknown paths 404, stalled body reads 408 (``read_timeout``),
oversized bodies 413 refused before the body is read, internal bugs 500,
draining 503 — all with the request id echoed in header and body, and
the connection closed afterwards.  Connections that sit idle (or drip
header bytes) past ``idle_timeout`` are closed without a response —
the slow-loris defence.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Optional

from repro.policy.controller import PolicyController
from repro.policy.operations import PolicyRequestError, respond, route
from repro.policy.rest import (
    DEFAULT_MAX_REQUEST_BYTES,
    _BodyReadTimeout,
    _decode_json,
    _RequestTooLarge,
    _ServerState,
)
from repro.policy.service import PolicyService

__all__ = ["AsyncPolicyRestServer"]

#: request line + headers must fit in this many bytes
_MAX_HEAD_BYTES = 16 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequestFraming(Exception):
    """Unparseable request head — the connection cannot continue."""


class _Head:
    """One parsed request head; the body (if any) is still on the wire."""

    __slots__ = ("method", "path", "headers")

    def __init__(self, method: str, path: str, headers: dict):
        self.method = method
        self.path = path
        self.headers = headers


class AsyncPolicyRestServer:
    """Asyncio HTTP frontend around a :class:`PolicyService`.

    Drop-in alternative to :class:`~repro.policy.rest.PolicyRestServer`::

        server = AsyncPolicyRestServer(service)   # port 0 = free port
        server.start()
        ... HTTPPolicyClient(server.url) ...
        drained = server.stop()

    ``stop()`` first refuses new requests with 503, waits up to
    ``drain_timeout`` seconds for in-flight ones, then closes the
    listening socket and the loop; returns whether the drain completed.
    """

    def __init__(
        self,
        service: PolicyService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        drain_timeout: float = 5.0,
        idle_timeout: Optional[float] = 60.0,
        read_timeout: Optional[float] = 10.0,
        tracer=None,
    ):
        if drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")
        self.service = service
        self.controller = PolicyController(service)
        self.drain_timeout = drain_timeout
        #: seconds a connection may sit without *starting* a request
        #: before the server closes it (slow-loris hardening)
        self.idle_timeout = idle_timeout
        #: seconds a client gets to deliver a request body it declared;
        #: a stall answers 408 and closes the connection
        self.read_timeout = read_timeout
        self._host = host
        self._port = port
        # Serializes service access against out-of-process users of the
        # same service (e.g. a threaded frontend sharing it); within this
        # server the single loop thread already serializes handlers.
        self._service_lock = threading.Lock()
        self._state = _ServerState(
            max_request_bytes,
            tracer=tracer if tracer is not None else service.tracer,
            idle_timeout=idle_timeout,
            read_timeout=read_timeout,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server = None
        self._thread: Optional[threading.Thread] = None
        self._address: Optional[tuple] = None

    # ------------------------------------------------------------ lifecycle
    @property
    def url(self) -> str:
        if self._address is None:
            raise RuntimeError("server not started")
        host, port = self._address[:2]
        return f"http://{host}:{port}"

    @property
    def access_log(self) -> list[dict]:
        """One entry per handled request (request id, host, method, path,
        status, wall-clock latency), oldest first, bounded."""
        return list(self._state.access_log)

    def start(self) -> "AsyncPolicyRestServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self._server = loop.run_until_complete(
                    asyncio.start_server(self._serve_connection, self._host, self._port)
                )
                self._address = self._server.sockets[0].getsockname()
            except BaseException as exc:  # surface bind errors to start()
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                # Cancellation of the connection tasks completes here.
                pending = asyncio.all_tasks(loop)
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        started.wait()
        if failure:
            self._thread.join(timeout=5)
            self._thread = None
            raise failure[0]
        return self

    def stop(self) -> bool:
        if self._thread is None:
            return True
        self._state.begin_stop()
        drained = self._state.drain(self.drain_timeout)
        loop = self._loop

        def shutdown() -> None:
            if self._server is not None:
                self._server.close()
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.call_soon(loop.stop)

        loop.call_soon_threadsafe(shutdown)
        # A hung handler blocks the loop thread past the drain window;
        # don't make a failed drain also stall the caller.
        self._thread.join(timeout=5 if drained else 0.5)
        self._thread = None
        self._loop = None
        self._server = None
        return drained

    def __enter__(self) -> "AsyncPolicyRestServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------ connection
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername") or ("?",)
        host = peer[0]
        try:
            while True:
                try:
                    # One budget covers waiting for a request *and* the
                    # trickle-fed head itself: a slow-loris client that
                    # drips header bytes never escapes the clock.
                    head = await asyncio.wait_for(
                        self._read_head(reader), self.idle_timeout
                    )
                except asyncio.TimeoutError:
                    break  # idle or stalled-in-head connection: just close
                if head is None:
                    break  # clean EOF between requests
                keep_alive = await self._handle_request(head, reader, host, writer)
                await writer.drain()
                if not keep_alive:
                    break
        except (
            _BadRequestFraming,
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader) -> Optional[_Head]:
        """Parse one request line + headers; leaves the body unread."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between pipelined requests
            raise _BadRequestFraming() from exc
        except asyncio.LimitOverrunError as exc:
            raise _BadRequestFraming() from exc
        if len(head) > _MAX_HEAD_BYTES:
            raise _BadRequestFraming()
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _BadRequestFraming()
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _BadRequestFraming()
            headers[name.strip().lower()] = value.strip()
        return _Head(parts[0], parts[1], headers)

    # -------------------------------------------------------------- handling
    async def _handle_request(
        self,
        head: _Head,
        reader: asyncio.StreamReader,
        host: str,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Handle one request; returns whether to keep the connection."""
        state = self._state
        rid = head.headers.get("x-repro-request-id") or state.next_request_id()
        t0 = time.perf_counter()
        tracer = state.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "rest", f"{head.method} {head.path}", track="rest",
                request_id=rid, host=host,
            )
        status = 0
        keep_alive = True
        finished = False

        def finish(code: int) -> None:
            nonlocal finished
            if finished:
                return
            finished = True
            state.log_request({
                "request_id": rid,
                "host": host,
                "method": head.method,
                "path": head.path,
                "status": code,
                "latency_s": time.perf_counter() - t0,
            })
            tracer.end(span, status=code)

        def send(code: int, body: bytes, content_type: str) -> None:
            nonlocal status
            status = code
            # Finalize the access-log entry before any response byte goes
            # out: a client that has observed the response must find its
            # entry in the log (same contract as the threaded frontend).
            finish(code)
            resp = (
                f"HTTP/1.1 {code} {_REASONS.get(code, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"X-Repro-Request-Id: {rid}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n"
            )
            writer.write(resp.encode("latin-1") + body)

        def reply(code: int, doc: dict) -> None:
            send(code, json.dumps(doc).encode(), "application/json")

        if not state.enter():
            keep_alive = False
            reply(503, {"error": "server is shutting down", "request_id": rid})
            return keep_alive
        try:
            if head.method == "GET":
                # GET ignores its body, but a well-framed one must be
                # drained to keep the connection reusable; when the
                # framing cannot be trusted, answer and then close.
                framed = await self._discard_get_body(head, reader)
                if not framed:
                    keep_alive = False
                body = b""
            else:
                body = await self._read_body(head, reader)
            self._dispatch(head, body, rid, reply, send)
        except _RequestTooLarge as exc:
            # The oversized body was never read — this connection cannot
            # be reused.
            keep_alive = False
            reply(413, {"error": str(exc), "request_id": rid})
        except _BodyReadTimeout:
            # The client declared a body and then stalled; the wire still
            # holds unread bytes, so answer and drop the connection.
            keep_alive = False
            reply(408, {
                "error": "timed out reading request body", "request_id": rid,
            })
        except PolicyRequestError as exc:
            # The body may be unread (bad framing) — do not reuse the
            # connection for a follow-up request.
            keep_alive = False
            reply(400, {"error": str(exc), "request_id": rid})
        except asyncio.IncompleteReadError:
            raise  # connection died mid-body; nothing to answer
        except Exception as exc:  # don't drop the connection on a bug
            keep_alive = False
            reply(500, {"error": f"internal error: {exc}", "request_id": rid})
        finally:
            state.leave()
            finish(status)  # backstop if no reply was sent
        return keep_alive

    async def _read_body(self, head: _Head, reader: asyncio.StreamReader) -> bytes:
        """Read the request body, refusing oversized ones *before* the
        read: the declared size alone disqualifies the request, so the
        body bytes never enter memory."""
        length = self._state.body_length(head.headers.get("content-length", "0"))
        if not length:
            return b""
        try:
            return await asyncio.wait_for(
                reader.readexactly(length), self.read_timeout
            )
        except asyncio.TimeoutError as exc:
            raise _BodyReadTimeout() from exc

    async def _discard_get_body(
        self, head: _Head, reader: asyncio.StreamReader
    ) -> bool:
        """Drain an ignored GET body; returns whether framing survives.
        An oversized body is not buffered: answer, then close."""
        try:
            length = self._state.body_length(head.headers.get("content-length", "0"))
        except (PolicyRequestError, _RequestTooLarge):
            return False
        if length:
            try:
                await asyncio.wait_for(
                    reader.readexactly(length), self.read_timeout
                )
            except asyncio.TimeoutError:
                return False  # stalled GET body: answer, then close
        return True

    def _dispatch(self, head: _Head, body: bytes, rid: str, reply, send) -> None:
        found = route(head.method, head.path)
        if found is None:
            if head.method in ("GET", "POST"):
                error = f"no such endpoint {head.path!r}"
            else:
                error = f"method {head.method} not supported"
            reply(404, {"error": error, "request_id": rid})
            return
        op, request = found
        if op.method == "POST":
            request = (_decode_json(body),)
        with self._service_lock:
            result = getattr(self.controller, op.name)(*request)
            send(*respond(op, result, head.path, rid))
