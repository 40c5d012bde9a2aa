"""The benchmark's own open-loop HTTP client.

It is deliberately independent of :mod:`repro.loadgen`, so the instrument
stays fixed while the program under test changes.  One thread drives a
fixed pool of keep-alive :class:`http.client.HTTPConnection` objects
through an edge-triggered ``epoll``:

* every request leaves in one ``sendall`` with ``TCP_NODELAY`` set, so a
  Nagle or delayed-ACK stall that shows up in the numbers is the server's;
* a response is handed to :meth:`~http.client.HTTPConnection.getresponse`
  only once all of its bytes have arrived (checked with ``MSG_PEEK``), so
  a slow response never blocks the dispatch of the next one;
* latency runs from each request's *scheduled* send time, so a stall also
  charges the wait it imposes on the requests queued behind it.

Idle connections are reused last in, first out, as pooling HTTP clients do
(a recently used connection is the warm one).  A request that finds every
connection busy waits for one; its lateness is charged to the server.  A request dispatched late while a connection sat
idle is charged to the generator, and too many of those make the run
invalid.
"""

from __future__ import annotations

import gc
import http.client
import json
import re
import select
import socket
import time
from collections import deque
from dataclasses import dataclass

from workloads import Request

clock = time.perf_counter

#: A dispatch later than this after its scheduled time counts as late.
LATE_MS = 20.0
#: A request not answered within this many seconds counts as timed out.
REQUEST_TIMEOUT_S = 30.0

_CONTENT_LENGTH = re.compile(rb"\r\ncontent-length:\s*(\d+)", re.IGNORECASE)


@dataclass(eq=False)
class Outcome:
    """What happened to one scheduled request (times are ``clock()``)."""

    request: Request
    scheduled: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: dict | None = None
    error: str | None = None
    #: Every connection was busy when the request fell due.
    waited_for_connection: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200

    @property
    def latency_ms(self) -> float:
        return (self.done - self.scheduled) * 1e3

    @property
    def service_ms(self) -> float:
        return (self.done - self.sent) * 1e3

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.scheduled) * 1e3

    @property
    def generator_late(self) -> bool:
        return self.lateness_ms > LATE_MS and not self.waited_for_connection


class Connection(http.client.HTTPConnection):
    """A keep-alive connection whose request goes out in a single write."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(host, port, timeout=REQUEST_TIMEOUT_S)
        self._pending = bytearray()
        self.connect()

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, data) -> None:
        # ``request`` writes the head and the body separately; collect both
        # and let ``send_request`` put them on the wire at once.
        self._pending += data

    def _write(self, method: str, path: str, body: bytes | None, headers) -> None:
        self._pending = bytearray()
        self.request(method, path, body=body, headers=headers)
        self.sock.sendall(self._pending)

    def send_request(self, request: Request) -> None:
        headers = {"Content-Type": "application/json", "X-Bench-Request": request.id}
        self._write("POST", request.path, request.body, headers)

    def call(self, method: str, path: str, payload=None) -> tuple[int, dict | None]:
        """One blocking request (set-up, checks and stats, never timed)."""
        body = None if payload is None else json.dumps(payload).encode()
        self._write(method, path, body, {"Content-Type": "application/json"})
        return self.read_response()

    def response_complete(self) -> bool:
        """True once the whole response sits in the socket's receive buffer."""
        data = self.sock.recv(1 << 22, socket.MSG_PEEK)
        if not data:
            raise ConnectionError("server closed the connection")
        head_end = data.find(b"\r\n\r\n")
        if head_end < 0:
            return False
        match = _CONTENT_LENGTH.search(data, 0, head_end + 2)
        length = int(match.group(1)) if match else 0
        return len(data) >= head_end + 4 + length

    def read_response(self) -> tuple[int, dict | None]:
        response = self.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else None)


class OpenLoopClient:
    """A fixed pool of connections driven open-loop from one thread."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self._poll = select.epoll()
        self._host, self._port = host, port
        self._connections: dict[int, Connection] = {}
        for _ in range(connections):
            self._add_connection()

    def _add_connection(self) -> Connection:
        conn = Connection(self._host, self._port)
        # One round trip before the next connect: the server's accept
        # backlog is short, and a dropped SYN costs a 1 s retransmit.
        conn.call("GET", "/health")
        fd = conn.sock.fileno()
        self._poll.register(fd, select.EPOLLIN | select.EPOLLET | select.EPOLLRDHUP)
        self._connections[fd] = conn
        return conn

    def _replace(self, fd: int) -> Connection:
        conn = self._connections.pop(fd)
        self._poll.unregister(fd)
        conn.close()
        return self._add_connection()

    def close(self) -> None:
        for conn in self._connections.values():
            conn.close()
        self._connections.clear()
        self._poll.close()

    def run(self, requests: list[Request], start: float) -> list[Outcome]:
        """Send ``requests`` at ``start + request.due``; return every outcome.

        The garbage collector is paused meanwhile, so a collection never
        makes the generator late.
        """
        gc.disable()
        try:
            return self._run(requests, start)
        finally:
            gc.enable()

    def _run(self, requests: list[Request], start: float) -> list[Outcome]:
        outcomes = [Outcome(r, start + r.due) for r in requests]
        idle = deque(self._connections.values())
        busy: dict[int, Outcome] = {}
        backlog: deque[Outcome] = deque()
        upcoming = deque(outcomes)

        def dispatch(outcome: Outcome, conn: Connection) -> None:
            outcome.sent = clock()
            try:
                conn.send_request(outcome.request)
            except OSError as error:
                outcome.done, outcome.error = clock(), f"send: {error!r}"
                idle.append(self._replace(conn.sock.fileno()))
                return
            busy[conn.sock.fileno()] = outcome

        while upcoming or backlog or busy:
            now = clock()
            while upcoming and upcoming[0].scheduled <= now:
                outcome = upcoming.popleft()
                outcome.waited_for_connection = not idle
                backlog.append(outcome)
            while backlog and idle:
                dispatch(backlog.popleft(), idle.pop())
            for fd, outcome in list(busy.items()):
                if now - outcome.sent > REQUEST_TIMEOUT_S:
                    del busy[fd]
                    outcome.done, outcome.error = now, "timeout"
                    idle.append(self._replace(fd))
            timeout = 0.05
            if upcoming:
                timeout = min(timeout, max(0.0, upcoming[0].scheduled - clock()))
            for fd, _events in self._poll.poll(timeout):
                outcome = busy.get(fd)
                if outcome is None:
                    continue
                conn = self._connections[fd]
                try:
                    if not conn.response_complete():
                        continue
                    outcome.status, outcome.body = conn.read_response()
                    outcome.done = clock()
                    idle.append(conn)
                except (OSError, http.client.HTTPException, ValueError) as error:
                    outcome.done, outcome.error = clock(), f"receive: {error!r}"
                    idle.append(self._replace(fd))
                del busy[fd]
                if backlog and idle:
                    dispatch(backlog.popleft(), idle.pop())
        return outcomes
