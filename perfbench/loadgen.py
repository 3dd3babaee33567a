"""Open-loop HTTP load generator over a few keep-alive connections.

Requests are sent on a fixed schedule, whatever the service does: each
planned request has a due time, and its latency is measured from that
due time, so a stall is charged to every request it delays.  At most
``connections`` requests are outstanding at once, one per keep-alive
connection, each driven by its own thread; a free connection takes the
next request in due order, so two entries due at the same instant leave
on two connections together (the coalescing probe).

The generator runs in a process of its own (:func:`drive` starts it as
``python3 loadgen.py PLAN OUTCOMES``), so its threads never contend
with the server for the interpreter lock, and its client is a minimal
HTTP/1.1 speaker on a raw socket.  ``perf_counter`` is the system's
monotonic clock, so its timestamps compare directly with the server's.
"""

from __future__ import annotations

import pickle
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

#: Seconds a request may take before the client gives up on it.
TIMEOUT_S = 30.0


class Planned:
    """One scheduled request: due offset, wire bytes, and what to check.

    Every request carries an ``X-Bench-Id`` header with its plan index,
    which is how the traced run pairs a handler span with the client's
    own measurement of the same request.
    """

    __slots__ = ("due_s", "method", "path", "head", "body", "check")

    def __init__(
        self,
        due_s: float,
        method: str,
        path: str,
        body: Optional[bytes],
        check: object,
    ) -> None:
        self.due_s = due_s
        self.method = method
        self.path = path
        self.check = check
        lines = [f"{method} {path} HTTP/1.1", "Host: perfbench"]
        if body is not None:
            lines += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
        self.head = "\r\n".join(lines) + "\r\n"
        self.body = body or b""


class Outcome:
    """What one request did; times are ``perf_counter`` seconds."""

    __slots__ = ("due", "sent", "done", "status", "body", "error")

    def __init__(self) -> None:
        self.due = 0.0
        self.sent = 0.0
        self.done = 0.0
        self.status = 0
        self.body = b""
        self.error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        """Due time to response, in milliseconds."""
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        """How late the generator sent, relative to the schedule."""
        return (self.sent - self.due) * 1000.0

    @property
    def round_trip_ms(self) -> float:
        """Send to response, in milliseconds (what the wire and server cost)."""
        return (self.done - self.sent) * 1000.0


class _Connection:
    """One keep-alive connection; reopened after a transport error."""

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self.address = (host, port)
        self.timeout_s = timeout_s
        self.sock: Optional[socket.socket] = None
        self.buffer = b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def exchange(self, request: bytes) -> Tuple[int, bytes]:
        if self.sock is None:
            self.sock = socket.create_connection(self.address, timeout=self.timeout_s)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.buffer = b""
        self.sock.sendall(request)
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        raw_head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        lines = raw_head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        close = False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        while len(self.buffer) < length:
            self._fill()
        payload, self.buffer = self.buffer[:length], self.buffer[length:]
        if close:
            self.close()
        return status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk


def run_open_loop(
    host: str,
    port: int,
    plan: Sequence[Planned],
    connections: int,
    timeout_s: float = TIMEOUT_S,
) -> List[Outcome]:
    """Send ``plan`` on schedule over ``connections`` keep-alive sockets.

    Returns one :class:`Outcome` per planned request, in plan order.  A
    transport failure is recorded on its outcome (``error``) and the
    connection is reopened for the next request.
    """
    outcomes = [Outcome() for _ in plan]
    cursor = iter(range(len(plan)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.02

    def drive() -> None:
        connection = _Connection(host, port, timeout_s)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                entry = plan[index]
                outcome = outcomes[index]
                outcome.due = start + entry.due_s
                delay = outcome.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                request = (
                    entry.head + f"X-Bench-Id: {index}\r\n\r\n"
                ).encode("latin-1") + entry.body
                outcome.sent = time.perf_counter()
                try:
                    outcome.status, outcome.body = connection.exchange(request)
                except (OSError, ValueError, IndexError) as error:
                    outcome.error = repr(error)
                    connection.close()
                outcome.done = time.perf_counter()
        finally:
            connection.close()

    threads = [
        threading.Thread(target=drive, name=f"perfbench-loadgen-{n}", daemon=True)
        for n in range(max(1, connections))
    ]
    for thread in threads:
        thread.start()
    last_due = plan[-1].due_s if plan else 0.0
    deadline = start + last_due + timeout_s + 5.0
    for thread in threads:
        thread.join(timeout=max(0.1, deadline - time.perf_counter()))
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator threads did not finish in time")
    return outcomes


def drive(
    host: str,
    port: int,
    plan: Sequence[Planned],
    connections: int,
    workdir: Path,
    timeout_s: float = TIMEOUT_S,
) -> List[Outcome]:
    """Run :func:`run_open_loop` in a fresh generator process and wait for it."""
    plan_path = workdir / "loadgen-plan.pickle"
    outcome_path = workdir / "loadgen-outcomes.pickle"
    plan_path.write_bytes(
        pickle.dumps((host, port, list(plan), connections, timeout_s))
    )
    last_due = plan[-1].due_s if plan else 0.0
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(plan_path), str(outcome_path)],
            check=True,
            timeout=last_due + timeout_s + 30.0,
        )
        return pickle.loads(outcome_path.read_bytes())
    finally:
        plan_path.unlink(missing_ok=True)
        outcome_path.unlink(missing_ok=True)


def main(argv: Sequence[str]) -> int:
    """Generator-process entry: ``loadgen.py PLAN OUTCOMES`` (pickles)."""
    # Go through the importable module, not ``__main__``, so the pickled
    # outcomes name ``loadgen.Outcome`` and load back in the parent.
    import loadgen

    plan_path, outcome_path = argv
    host, port, plan, connections, timeout_s = pickle.loads(Path(plan_path).read_bytes())
    outcomes = loadgen.run_open_loop(host, port, plan, connections, timeout_s)
    Path(outcome_path).write_bytes(pickle.dumps(outcomes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
