"""The open-loop client against a tiny stand-in HTTP server (no repro)."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from client import OpenLoopClient
from workloads import Request


class _SlowFirst(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stall = 0.3

    def log_message(self, *args):
        pass

    def do_GET(self):
        self._answer()

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.headers.get("X-Bench-Request") == "t-0":
            time.sleep(self.stall)
        self._answer()

    def _answer(self):
        body = json.dumps({"num_rows": 1}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _SlowFirst)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address[1]
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _requests(dues):
    return [Request("t", i, due, "similarity", "x", "/q", b"{}")
            for i, due in enumerate(dues)]


def test_a_stalled_request_charges_the_requests_queued_behind_it(server):
    client = OpenLoopClient("127.0.0.1", server, connections=1)
    try:
        start = time.perf_counter() + 0.01
        first, second, third = client.run(_requests([0.0, 0.05, 0.1]), start)
    finally:
        client.close()
    assert all(o.ok for o in (first, second, third))
    stall_ms = _SlowFirst.stall * 1e3
    assert first.latency_ms >= stall_ms
    # The second request was due 50 ms in and waited for the only
    # connection: its latency runs from when it was due, not when it left.
    assert second.waited_for_connection and not second.generator_late
    assert second.latency_ms >= stall_ms - 50
    assert second.latency_ms > second.service_ms + 200
    assert third.latency_ms == pytest.approx(
        (third.done - third.scheduled) * 1e3
    )


def test_idle_connections_send_on_time(server):
    client = OpenLoopClient("127.0.0.1", server, connections=4)
    try:
        outcomes = client.run(_requests([0.01, 0.02, 0.03]), time.perf_counter())
    finally:
        client.close()
    late = [o for o in outcomes[1:] if o.waited_for_connection]
    assert not late
    assert all(o.lateness_ms < 10 for o in outcomes[1:])
