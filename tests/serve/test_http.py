"""The HTTP layer: strict parsing, structured rejections, keep-alive."""

import json
import socket
import time

from repro.serve import MAX_BODY_BYTES, http


def raw_exchange(client, payload, recv_bytes=65536):
    """Send raw bytes to the served port and return the raw response."""
    with socket.create_connection(("127.0.0.1", client.server.port), timeout=10) as s:
        s.sendall(payload)
        s.shutdown(socket.SHUT_WR)  # half-close: the server sees EOF after payload
        s.settimeout(10)
        chunks = []
        try:
            while True:
                chunk = s.recv(recv_bytes)
                if not chunk:
                    break
                chunks.append(chunk)
        except socket.timeout:
            pass
        return b"".join(chunks)


def body_of(response):
    head, _, body = response.partition(b"\r\n\r\n")
    return head, body


class TestParsing:
    def test_malformed_request_line_is_structured_400(self, served):
        response = raw_exchange(served, b"GARBAGE\r\n\r\n")
        head, body = body_of(response)
        assert b"400" in head.splitlines()[0]
        assert json.loads(body) == {"error": "malformed request line"}

    def test_unsupported_protocol_version(self, served):
        response = raw_exchange(served, b"GET / HTTP/2.0\r\n\r\n")
        head, body = body_of(response)
        assert b"505" in head.splitlines()[0]
        assert "unsupported protocol" in json.loads(body)["error"]

    def test_malformed_header_line(self, served):
        response = raw_exchange(served, b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        head, body = body_of(response)
        assert b"400" in head.splitlines()[0]
        assert json.loads(body)["error"] == "malformed header line"

    def test_bad_content_length(self, served):
        response = raw_exchange(
            served, b"POST /v1/claims HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
        )
        head, body = body_of(response)
        assert b"400" in head.splitlines()[0]
        assert json.loads(body)["error"] == "malformed content-length"

    def test_oversized_body_is_413(self, served):
        response = raw_exchange(
            served,
            f"POST /v1/claims HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
        )
        head, body = body_of(response)
        assert b"413" in head.splitlines()[0]
        assert "exceeds" in json.loads(body)["error"]

    def test_chunked_transfer_is_declined(self, served):
        response = raw_exchange(
            served,
            b"POST /v1/claims HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        )
        head, body = body_of(response)
        assert b"501" in head.splitlines()[0]
        assert "chunked" in json.loads(body)["error"]

    def test_oversized_request_line_is_400(self, served):
        response = raw_exchange(
            served, b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        )
        head, body = body_of(response)
        assert b"400" in head.splitlines()[0]
        assert json.loads(body) == {"error": "request line too long"}

    def test_oversized_header_line_is_400(self, served):
        # A header line past the stream's 64 KiB line limit used to let
        # ValueError escape the parser: no response, a dropped socket.
        response = raw_exchange(
            served, b"GET /health HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n"
        )
        head, body = body_of(response)
        assert b"400" in head.splitlines()[0]
        assert json.loads(body) == {"error": "header line too long"}

    def test_error_response_survives_a_client_still_sending(self, served):
        # The server answers the oversized header line while the client
        # is still sending.  Closing with that input unread would reset
        # the connection and could lose the 400; the server half-closes
        # and drains instead, so every send and the read succeed.
        with socket.create_connection(
            ("127.0.0.1", served.server.port), timeout=10
        ) as s:
            s.sendall(b"GET /health HTTP/1.1\r\nX-Big: " + b"a" * 70_000)
            for _ in range(16):
                time.sleep(0.01)
                s.sendall(b"a" * 16_384)
            s.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, body = body_of(b"".join(chunks))
        assert b"400" in head.splitlines()[0]
        assert json.loads(body) == {"error": "header line too long"}

    def test_lingering_close_is_capped_in_time(self, served, monkeypatch):
        # A client that never half-closes still gets the close, once the
        # linger's time cap runs out.
        monkeypatch.setattr(http, "LINGER_SECONDS", 0.2)
        with socket.create_connection(
            ("127.0.0.1", served.server.port), timeout=10
        ) as s:
            s.sendall(b"GARBAGE\r\n\r\n")
            started = time.monotonic()
            chunks = []
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        assert time.monotonic() - started < 5
        head, body = body_of(b"".join(chunks))
        assert json.loads(body) == {"error": "malformed request line"}

    def test_deeply_nested_json_body_is_400(self, served):
        status, document, _ = served.post("/v1/maxis", None, raw=b"[" * 200_000)
        assert status == 400
        assert document["error"] == "request body is not valid JSON"

    def test_truncated_body_is_400(self, served):
        response = raw_exchange(
            served,
            b"POST /v1/claims HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
        )
        head, body = body_of(response)
        assert b"400" in head.splitlines()[0]
        assert "shorter than content-length" in json.loads(body)["error"]


class TestRouting:
    def test_unknown_path_is_404_with_path_list(self, served):
        status, document = served.get_json("/nope")
        assert status == 404
        assert document["error"] == "unknown path"
        assert "/v1/claims" in document["paths"]

    def test_method_not_allowed_on_compute_endpoint(self, served):
        status, body, headers = served.get("/v1/claims")
        assert status == 405
        assert headers.get("Allow") == "POST"
        assert json.loads(body)["allowed"] == ["POST"]

    def test_index_lists_endpoints(self, served):
        status, document = served.get_json("/")
        assert status == 200
        assert document["service"] == "repro-serve"
        assert "POST /v1/claims" in document["endpoints"]

    def test_keep_alive_serves_multiple_requests_on_one_connection(self, served):
        request = b"GET /health HTTP/1.1\r\n\r\n"
        response = raw_exchange(served, request + request)
        assert response.count(b"HTTP/1.1 200 OK") == 2
        assert b"Connection: keep-alive" in response

    def test_connection_close_is_honored(self, served):
        response = raw_exchange(
            served, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert b"Connection: close" in response

    def test_health_reports_queue_and_cache_state(self, served):
        status, document = served.get_json("/health")
        assert status == 200
        assert document["status"] == "ok"
        assert document["cache"] == "off"
        assert document["dispatch"]["queue_limit"] >= 1
        assert document["jobs"] == {"total": 0, "active": 0}

    def test_metrics_renders_prometheus_exposition(self, served):
        served.get_json("/health")
        status, body, headers = served.get("/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"repro_build_info" in body

    def test_progress_is_json(self, served):
        status, document = served.get_json("/progress")
        assert status == 200
        assert "schema_version" in document
