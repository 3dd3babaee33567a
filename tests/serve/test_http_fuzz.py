"""Fuzz the HTTP/1.1 parser with generated byte streams over a socket.

Each example opens one connection to an :class:`Application` served on
a :class:`BackgroundServer`, writes a generated stream (raw bytes, or
valid requests with broken framing), half-closes, and reads until the
server closes.  Whatever arrives must be well-formed responses: no
``500``, every parser rejection one of 400/413/501/505, the connection
answered or closed within the timeout, and no coalescing entry left
behind.
"""

import json
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import cycle_graph, graph_to_dict
from repro.serve import Application, BackgroundServer

TIMEOUT_S = 10
PARSER_STATUSES = {400, 413, 501, 505}

_MAXIS_BODY = json.dumps(
    {"graph": graph_to_dict(cycle_graph(["a", "b", "c", "d", "e"]))}
).encode()

VALID_REQUESTS = [
    b"GET /health HTTP/1.1\r\n\r\n",
    b"GET /v1 HTTP/1.1\r\nHost: localhost\r\n\r\n",
    b"GET /nope?x=1 HTTP/1.0\r\n\r\n",
    b"POST /v1/claims HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
    b"POST /v1/maxis HTTP/1.1\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(_MAXIS_BODY), _MAXIS_BODY),
]


def _with_content_length(request, value):
    head, sep, body = request.partition(b"\r\n\r\n")
    lines = [line for line in head.split(b"\r\n")
             if not line.lower().startswith(b"content-length:")]
    lines.append(b"Content-Length: " + value)
    return b"\r\n".join(lines) + sep + body


@st.composite
def mutated_request(draw):
    request = draw(st.sampled_from(VALID_REQUESTS))
    mutation = draw(st.sampled_from(
        ["none", "bare_lf", "drop_crlf", "content_length", "truncate", "insert"]
    ))
    if mutation == "bare_lf":
        return request.replace(b"\r\n", b"\n")
    if mutation == "drop_crlf":
        occurrences = request.count(b"\r\n")
        nth = draw(st.integers(0, occurrences - 1))
        parts = request.split(b"\r\n")
        return b"\r\n".join(parts[:nth + 1]) + b"".join(parts[nth + 1:])
    if mutation == "content_length":
        value = draw(st.one_of(
            st.sampled_from([b"", b"-1", b"abc", b"1e3", b"0x10", b"99999999999"]),
            st.integers(0, 64).map(lambda n: str(n).encode()),
        ))
        return _with_content_length(request, value)
    if mutation == "truncate":
        return request[:draw(st.integers(0, len(request)))]
    if mutation == "insert":
        at = draw(st.integers(0, len(request)))
        return request[:at] + draw(st.binary(min_size=1, max_size=16)) + request[at:]
    return request


streams = st.one_of(
    st.binary(max_size=256),
    st.lists(mutated_request(), min_size=1, max_size=3).map(b"".join),
)


def exchange(port, stream, cuts):
    """Send ``stream`` in pieces, half-close, read until EOF.

    Returns ``(received bytes, closed_by_server, reset)``.
    """
    bounds = sorted({cut % (len(stream) + 1) for cut in cuts}) + [len(stream)]
    received = []
    deadline = time.monotonic() + TIMEOUT_S
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            start = 0
            for end in bounds:
                s.sendall(stream[start:end])
                start = end
            s.shutdown(socket.SHUT_WR)
            while time.monotonic() < deadline:
                chunk = s.recv(65536)
                if not chunk:
                    return b"".join(received), True, False
                received.append(chunk)
        except socket.timeout:
            pass
        except OSError:  # reset, broken pipe, or not connected
            return b"".join(received), True, True
    return b"".join(received), False, False


def parse_responses(data):
    """Split a byte stream into ``(status, headers)`` pairs plus a tail."""
    responses = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        if not sep:
            break
        lines = head.decode("latin-1").split("\r\n")
        version, status, _ = lines[0].split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        if len(rest) < length:
            break
        body, data = rest[:length], rest[length:]
        if headers["content-type"] == "application/json":
            json.loads(body)
        responses.append((int(status), headers))
    return responses, data


@pytest.fixture(scope="module")
def served_app():
    app = Application()
    server = BackgroundServer(app.dispatch).start()
    try:
        yield app, server
    finally:
        server.close()
        app.close()


@settings(max_examples=150)
@given(stream=streams, cuts=st.lists(st.integers(0, 4096), max_size=3))
def test_parser_never_errors_hangs_or_leaks(served_app, stream, cuts):
    app, server = served_app
    data, closed, reset = exchange(server.port, stream, cuts)
    assert closed, f"connection neither answered nor closed in {TIMEOUT_S}s"
    responses, tail = parse_responses(data)
    # A reset (the server closed while pieces were still arriving) may
    # discard the answer; otherwise any bytes sent get a response.
    assert responses or reset or not stream, "connection dropped unanswered"
    assert reset or not tail, f"unparseable response bytes: {tail[:200]!r}"
    for status, headers in responses:
        assert status != 500
        if "traceparent" not in headers:
            # Only the application stamps traceparent: this is a parser error.
            assert status in PARSER_STATUSES, status
        else:
            assert status < 500, status
    assert app._inflight == {}
