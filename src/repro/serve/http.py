"""A stdlib-only asyncio HTTP/1.1 front-end for the serve application.

No framework, no dependency: :func:`asyncio.start_server` plus a small
hand-rolled request parser that is strict about what it accepts (bounded
request line, header count, and body size) and structured about how it
rejects — every protocol violation becomes a JSON error body, never a
traceback on the socket.

The parser supports exactly what the service needs: ``GET``/``POST``
with an optional ``Content-Length`` body, keep-alive by default on
HTTP/1.1, and ``Connection: close`` honored.  Anything else (chunked
uploads, expect-continue, upgrades) is declined with a structured 4xx.

:class:`BackgroundServer` runs the same server on a daemon thread with
its own event loop — the shape the in-process tests and perfbench's
serve phase share — while :func:`run` is the
foreground entry the CLI uses, exiting 0 on SIGINT/SIGTERM.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

#: Hard caps that bound a single request's cost to parse.
MAX_REQUEST_LINE_BYTES = 8192
MAX_HEADER_COUNT = 100
MAX_BODY_BYTES = 8 << 20  # gadget graphs serialize small; 8 MiB is generous

#: Caps on the input read and discarded after a parse error, before the
#: close (see :func:`_linger`).
LINGER_MAX_BYTES = 1 << 20
LINGER_SECONDS = 2.0


class Request:
    """One parsed HTTP request.

    ``received_s`` is the ``perf_counter`` timestamp taken as soon as
    the request finished parsing — the zero point every request-trace
    span and the access log's total duration measure from.
    """

    __slots__ = ("method", "path", "headers", "body", "received_s")

    def __init__(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        received_s: Optional[float] = None,
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.received_s = received_s if received_s is not None else time.perf_counter()


class Response:
    """One response: status + content type + body + extra headers."""

    __slots__ = ("status", "content_type", "body", "headers")

    def __init__(
        self,
        status: int,
        content_type: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.status = status
        self.content_type = content_type
        self.body = body
        self.headers = headers or {}


def json_response(
    status: int, document: Any, headers: Optional[Dict[str, str]] = None
) -> Response:
    """A ``Response`` with a deterministically-serialized JSON body."""
    body = json.dumps(document, sort_keys=True).encode("utf-8")
    return Response(status, "application/json", body, headers)


class ProtocolError(Exception):
    """A malformed or oversized request; maps to a structured 4xx."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    505: "HTTP Version Not Supported",
}


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` on a clean EOF between requests."""
    try:
        line = await reader.readline()
    except (ValueError, ConnectionResetError):
        raise ProtocolError(400, "request line too long") from None
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE_BYTES:
        raise ProtocolError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ProtocolError(400, "malformed request line")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(505, f"unsupported protocol version {version}")
    headers: Dict[str, str] = {}
    while True:
        try:
            header_line = await reader.readline()
        except ValueError:
            raise ProtocolError(400, "header line too long") from None
        if header_line in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADER_COUNT:
            raise ProtocolError(400, "too many headers")
        name, sep, value = header_line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise ProtocolError(501, "chunked transfer encoding is not supported")
    raw_length = headers.get("content-length", "0")
    try:
        length = int(raw_length)
    except ValueError:
        raise ProtocolError(400, "malformed content-length") from None
    if length < 0:
        raise ProtocolError(400, "malformed content-length")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(
            413, f"request body exceeds {MAX_BODY_BYTES} bytes"
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "request body shorter than content-length") from None
    return Request(method.upper(), target, headers, body)


async def write_response(
    writer: asyncio.StreamWriter, response: Response, close: bool
) -> None:
    reason = _REASONS.get(response.status, "Unknown")
    head = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        "Server: repro-serve/1",
    ]
    for name, value in response.headers.items():
        head.append(f"{name}: {value}")
    head.append("Connection: close" if close else "Connection: keep-alive")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    writer.write(response.body)
    await writer.drain()


#: The application contract: an async request -> response callable.
Handler = Callable[[Request], Awaitable[Response]]


def suite_handler(suite: Any) -> Handler:
    """Serve a :class:`~repro.obs.httpexp.MetricsSuite`'s GET routes.

    The ``--metrics-port`` host: any other path is a 404 listing the
    suite's paths, any other method a 405.
    """

    async def handle(request: Request) -> Response:
        if request.method != "GET":
            return json_response(
                405,
                {"error": f"method not allowed on {request.path}",
                 "allowed": ["GET"]},
                headers={"Allow": "GET"},
            )
        resolved = suite.handle(request.path)
        if resolved is None:
            return json_response(
                404, {"error": "unknown path", "paths": suite.PATHS}
            )
        return Response(*resolved)

    return handle


async def serve_connection(
    handler: Handler,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One connection's keep-alive loop; never lets an exception escape."""
    try:
        while True:
            try:
                request = await read_request(reader)
            except ProtocolError as error:
                with contextlib.suppress(ConnectionError):
                    await write_response(
                        writer,
                        json_response(
                            error.status, {"error": error.message}
                        ),
                        close=True,
                    )
                    await _linger(reader, writer)
                return
            except (ConnectionResetError, asyncio.IncompleteReadError):
                return
            if request is None:
                return
            response = await handler(request)
            close = request.headers.get("connection", "").lower() == "close"
            try:
                await write_response(writer, response, close=close)
            except (BrokenPipeError, ConnectionResetError):
                return
            if close:
                return
    except asyncio.CancelledError:
        # Server shutdown cancels connections parked on keep-alive;
        # finishing the task normally keeps loop teardown quiet (3.11's
        # streams done-callback logs a traceback for cancelled tasks).
        return
    finally:
        with contextlib.suppress(Exception, asyncio.CancelledError):
            writer.close()
            await writer.wait_closed()


async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Half-close, then discard input until EOF or a cap, before the close.

    A parse error leaves the client mid-request, possibly still sending.
    Closing a socket with unread input makes the kernel answer with a
    reset, which can destroy the error response before the client reads
    it.  Sending FIN first and draining what is still in flight lets the
    response arrive; the byte and time caps bound what a client that
    never stops can cost.
    """
    if writer.can_write_eof():
        writer.write_eof()

    async def drain() -> None:
        drained = 0
        while drained < LINGER_MAX_BYTES:
            chunk = await reader.read(65536)
            if not chunk:
                return
            drained += len(chunk)

    with contextlib.suppress(asyncio.TimeoutError):
        await asyncio.wait_for(drain(), LINGER_SECONDS)


class ReproServer:
    """The bound asyncio server plus its advertised address."""

    def __init__(self, server: asyncio.base_events.Server, host: str) -> None:
        self._server = server
        sockname = server.sockets[0].getsockname()
        self.host = host
        self.port: int = sockname[1]
        self.url = f"http://{host}:{self.port}"

    async def close(self) -> None:
        self._server.close()
        await self._server.wait_closed()


async def start_server(
    handler: Handler, host: str = "127.0.0.1", port: int = 0
) -> ReproServer:
    """Bind and start serving ``handler``; returns the bound server."""
    server = await asyncio.start_server(
        lambda reader, writer: serve_connection(handler, reader, writer),
        host=host,
        port=port,
    )
    return ReproServer(server, host)


def run(
    handler: Handler,
    host: str = "127.0.0.1",
    port: int = 8421,
    announce: Optional[Callable[[str], None]] = None,
) -> int:
    """Foreground entry: serve until SIGINT/SIGTERM, then exit cleanly.

    Returns 0 — a signal-initiated shutdown is the *expected* way to
    stop a service, not an error (the CI smoke job asserts this).
    """

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or unsupported platform
        server = await start_server(handler, host=host, port=port)
        if announce is not None:
            announce(server.url)
        try:
            await stop.wait()
        finally:
            await server.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass  # signal handler could not be installed; still a clean stop
    return 0


class BackgroundServer:
    """The same server on a daemon thread with its own event loop.

    The in-process shape shared by the test suite and perfbench's
    serve phase: ``start()`` blocks until the socket
    is bound and exposes ``url``/``port``; ``close()`` stops the loop
    and joins the thread.
    """

    def __init__(
        self, handler: Handler, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._handler = handler
        self._host = host
        self._requested_port = port
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self.url: Optional[str] = None
        self.port: Optional[int] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-background", daemon=True
        )

    def start(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("background server failed to start in 10s")
        if self._error is not None:
            raise RuntimeError("background server failed to bind") from self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surfaced by start()
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await start_server(
            self._handler, host=self._host, port=self._requested_port
        )
        self.url = server.url
        self.port = server.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.close()

    def close(self) -> None:
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False
