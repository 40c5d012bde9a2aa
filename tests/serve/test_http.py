"""End-to-end tests of the stdlib JSON transport.

A real :class:`~repro.serve.http.ServeHTTPServer` on an ephemeral port,
exercised with ``http.client`` — the full create / append / query /
evict lifecycle, every query operation, the operational endpoints, one
test per distinct error-envelope path (malformed body, missing tenant,
duplicate create, invalid rows, corrupted durable state, failed
publish), the transport itself (``TCP_NODELAY``, one send per response,
no delayed-ACK stall on keep-alive connections), and read-your-writes
for acknowledged appends.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro import obs
from repro.serve import TenantManager
from repro.serve.http import ServeHTTPServer, create_server
from repro.serve.service import _Tenant

ATTRIBUTES = ["sector", "trend", "volume"]


def rows(count: int, start: int = 0) -> list[list[str]]:
    return [
        [f"s{(start + i) % 3}", f"t{(start + i) % 4}", f"v{(start + i) % 5}"]
        for i in range(count)
    ]


def exchange(
    connection: http.client.HTTPConnection, method: str, path: str, body=None
):
    """One request/response on ``connection``: ``(status, JSON or text body)``."""
    payload = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    content_type = response.getheader("Content-Type", "")
    if content_type.startswith("application/json"):
        return response.status, json.loads(raw)
    return response.status, raw.decode("utf-8")


class Client:
    """A minimal JSON client over ``http.client``, one connection a request."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def request(self, method: str, path: str, body=None):
        connection = self.connect()
        try:
            return exchange(connection, method, path, body)
        finally:
            connection.close()

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body=None):
        return self.request("POST", path, body)

    def delete(self, path):
        return self.request("DELETE", path)


@pytest.fixture()
def served(tmp_path):
    registry = obs.enable()
    manager = TenantManager(tmp_path / "serve", max_tenants=4)
    server = create_server(manager, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield Client(host, port), manager
    finally:
        server.shutdown()
        server.server_close()
        manager.close()
        thread.join(timeout=10)
        obs.disable()
    assert registry is not None


def num_rows(client: Client, dataset: str) -> int:
    status, body = client.get(f"/v1/tenants/{dataset}")
    assert status == 200
    return body["num_rows"]


# ------------------------------------------------------------------ lifecycle
def test_full_lifecycle_over_http(served):
    client, _manager = served
    status, body = client.post(
        "/v1/tenants", {"dataset_id": "market", "attributes": ATTRIBUTES}
    )
    assert status == 201 and body["dataset_id"] == "market" and body["resident"]

    status, body = client.post("/v1/tenants/market/append", {"rows": rows(60)})
    assert status == 200 and body["appended"] == 60
    assert num_rows(client, "market") == 60

    status, body = client.get("/v1/tenants")
    assert status == 200 and body["datasets"] == ["market"]

    status, body = client.post(
        "/v1/tenants/market/query/similarity",
        {"first": "sector", "second": "trend"},
    )
    assert status == 200
    assert body["dataset_id"] == "market" and body["num_rows"] == 60
    assert 0.0 <= body["similarity"] <= 1.0

    status, body = client.post(
        "/v1/tenants/market/query/neighbors", {"attribute": "sector"}
    )
    assert status == 200 and isinstance(body["neighbors"], list)

    status, body = client.post("/v1/tenants/market/query/clusters", {"t": 2})
    assert status == 200 and len(body["centers"]) <= 2 and body["clusters"]

    status, body = client.post(
        "/v1/tenants/market/query/dominators", {"algorithm": "greedy"}
    )
    assert status == 200 and body["algorithm"] == "greedy"
    assert 0.0 <= body["coverage"] <= 1.0

    status, body = client.post(
        "/v1/tenants/market/query/classify", {"evidence": {"sector": "s0"}}
    )
    assert status == 200 and set(body["predictions"]) == {"trend", "volume"}

    status, body = client.delete("/v1/tenants/market")
    assert status == 200 and body == {"dataset_id": "market", "evicted": True}
    status, body = client.get("/v1/tenants/market")
    assert status == 200 and body["resident"] is False
    # Queries after eviction transparently re-open from the checkpoint.
    status, body = client.post(
        "/v1/tenants/market/query/similarity",
        {"first": "sector", "second": "trend"},
    )
    assert status == 200 and body["num_rows"] == 60


def test_operational_endpoints(served):
    client, _manager = served
    client.post("/v1/tenants", {"dataset_id": "ops", "attributes": ATTRIBUTES})
    client.post("/v1/tenants/ops/append", {"rows": rows(10)})
    assert num_rows(client, "ops") == 10

    status, body = client.get("/health")
    assert status == 200
    assert body["status"] == "ok" and body["resident_tenants"] == 1

    status, body = client.get("/stats")
    assert status == 200
    assert body["tenants"]["ops"]["num_rows"] == 10
    assert body["max_tenants"] == 4

    status, text = client.get("/metrics")
    assert status == 200 and isinstance(text, str)
    assert "serve_publish" in text and "serve_tenants" in text


# ------------------------------------------------------------------ envelopes
def test_error_envelopes_over_http(served):
    client, manager = served

    status, body = client.post("/v1/tenants", {"attributes": ATTRIBUTES})
    assert (status, body["error"]["code"]) == (400, "bad_request")
    assert "dataset_id" in body["error"]["message"]

    status, body = client.post(
        "/v1/tenants/ghost/query/similarity", {"first": "a", "second": "b"}
    )
    assert (status, body["error"]["code"]) == (404, "tenant_not_found")

    client.post("/v1/tenants", {"dataset_id": "dup", "attributes": ATTRIBUTES})
    status, body = client.post(
        "/v1/tenants", {"dataset_id": "dup", "attributes": ATTRIBUTES}
    )
    assert (status, body["error"]["code"]) == (409, "tenant_exists")

    status, body = client.post("/v1/tenants/dup/append", {"rows": [["one"]]})
    assert (status, body["error"]["code"]) == (422, "invalid_rows")

    status, body = client.post(
        "/v1/tenants/dup/query/dominators", {"algorithm": "magic"}
    )
    assert (status, body["error"]["code"]) == (400, "bad_request")

    status, body = client.post("/v1/tenants/dup/query/teleport", {})
    assert (status, body["error"]["code"]) == (400, "bad_request")

    status, body = client.post("/nowhere", {})
    assert (status, body["error"]["code"]) == (400, "bad_request")

    connection_body = b"{not json"
    connection = client.connect()
    connection.request(
        "POST",
        "/v1/tenants/dup/append",
        body=connection_body,
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    body = json.loads(response.read())
    connection.close()
    assert (response.status, body["error"]["code"]) == (400, "bad_request")


def test_corrupted_tenant_maps_to_storage_corruption(served):
    client, manager = served
    client.post("/v1/tenants", {"dataset_id": "bad", "attributes": ATTRIBUTES})
    client.post("/v1/tenants/bad/append", {"rows": rows(10)})
    assert num_rows(client, "bad") == 10
    client.delete("/v1/tenants/bad")  # checkpoint + close

    manifest = manager.root / "bad" / "MANIFEST.json"
    manifest.write_text("{ this is not a manifest")

    status, body = client.post(
        "/v1/tenants/bad/query/similarity", {"first": "sector", "second": "trend"}
    )
    assert status == 500
    assert body["error"]["code"] == "storage_corruption"
    assert body["error"]["detail"] == {"type": "StorageCorruptionError"}


def test_overload_maps_to_503_with_typed_envelope(tmp_path):
    """A full append queue answers 503 ``overloaded`` at the transport, and
    ``/stats`` exposes the shed counter and the in-flight gauge."""
    registry = obs.enable()
    manager = TenantManager(tmp_path / "serve", max_queue_depth=1)
    server = create_server(manager, port=0)
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    host, port = server.server_address[:2]
    client = Client(host, port)
    try:
        client.post("/v1/tenants", {"dataset_id": "jam", "attributes": ATTRIBUTES})
        client.post("/v1/tenants/jam/append", {"rows": rows(10)})
        assert num_rows(client, "jam") == 10

        tenant = manager._resolve("jam")
        release = threading.Event()
        entered = threading.Event()
        original = tenant._durable.append_rows

        def wedged(batch):
            entered.set()
            release.wait(timeout=30.0)
            return original(batch)

        tenant._durable.append_rows = wedged
        writers = [
            threading.Thread(
                target=client.post,
                args=("/v1/tenants/jam/append", {"rows": rows(10, start=10 * b)}),
                daemon=True,
            )
            for b in (1, 2)
        ]
        # The first batch wedges inside the writer (confirmed via the
        # event, freeing its queue slot); the second fills the queue.
        writers[0].start()
        assert entered.wait(timeout=10.0)
        writers[1].start()
        deadline = time.monotonic() + 10
        while tenant.queue_depth < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert tenant.queue_depth >= 1

        status, body = client.post(
            "/v1/tenants/jam/append", {"rows": rows(10, start=30)}
        )
        assert status == 503
        assert body["error"]["code"] == "overloaded"
        assert body["error"]["detail"] == {"type": "TenantOverloadedError"}

        release.set()
        for writer in writers:
            writer.join(timeout=30.0)
        tenant._durable.append_rows = original

        status, stats = client.get("/stats")
        assert status == 200
        assert stats["appends_shed"] >= 1
        assert stats["in_flight_queries"] == 0
    finally:
        release.set()
        server.shutdown()
        server.server_close()
        manager.close()
        server_thread.join(timeout=10)
        obs.disable()
    assert registry is not None


# ------------------------------------------------------------------ transport
class _CountingSocket(socket.socket):
    """An accepted socket that records, for each send, whether
    ``TCP_NODELAY`` was set.  A real socket subclass, so the handler's
    buffered ``makefile`` writer sends through it as well."""

    def __init__(self, accepted: socket.socket) -> None:
        super().__init__(
            accepted.family, accepted.type, accepted.proto, fileno=accepted.detach()
        )
        self.sends: list[bool] = []

    def _record(self) -> None:
        option = self.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        self.sends.append(bool(option))

    def send(self, data, *flags):
        self._record()
        return super().send(data, *flags)

    def sendall(self, data, *flags):
        self._record()
        return super().sendall(data, *flags)


class _CountingServer(ServeHTTPServer):
    """Hands the handler a :class:`_CountingSocket` per accepted connection."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.accepted: list[_CountingSocket] = []

    def get_request(self):
        accepted, address = super().get_request()
        counting = _CountingSocket(accepted)
        self.accepted.append(counting)
        return counting, address


@pytest.fixture()
def counted(tmp_path):
    manager = TenantManager(tmp_path / "serve")
    server = _CountingServer(("127.0.0.1", 0), manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield Client(host, port), server
    finally:
        server.shutdown()
        server.server_close()
        manager.close()
        thread.join(timeout=10)
        obs.disable()


def test_every_response_leaves_in_one_send_with_nodelay(counted):
    client, server = counted
    exchanges = [
        ("POST", "/v1/tenants", {"dataset_id": "one", "attributes": ATTRIBUTES}, 201),
        ("POST", "/v1/tenants/one/append", {"rows": rows(10)}, 200),
        ("GET", "/v1/tenants/one", None, 200),
        ("GET", "/v1/tenants/ghost", None, 404),  # an error envelope
        ("GET", "/metrics", None, 200),  # metrics off: the body fits the buffer
        ("PUT", "/v1/tenants", None, 501),  # the stdlib's own send_error
    ]
    for method, path, body, expected in exchanges:
        status, _ = client.request(method, path, body)
        assert status == expected
        assert server.accepted[-1].sends == [True], f"{method} {path}"
    assert len(server.accepted) == len(exchanges)


def test_bodies_larger_than_the_buffer_still_send_with_nodelay(counted):
    client, server = counted
    obs.enable()  # every instrument registered: a /metrics body of ~300 KB
    status, text = client.get("/metrics")
    assert status == 200 and len(text) > 64 * 1024
    sends = server.accepted[-1].sends
    assert len(sends) >= 2 and all(sends)


def test_expect_100_continue_is_answered_before_the_body(served):
    """The buffered writer must not hold "100 Continue" back: a client
    that waits for it before sending the body would stall otherwise."""
    client, _manager = served
    body = json.dumps({"dataset_id": "patient", "attributes": ATTRIBUTES}).encode()
    with socket.create_connection((client.host, client.port), timeout=5) as sock:
        sock.sendall(
            b"POST /v1/tenants HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\nExpect: 100-continue\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
        )
        interim = sock.recv(1024)
        assert interim.startswith(b"HTTP/1.1 100 Continue\r\n")
        sock.sendall(body)
        response = sock.makefile("rb")
        assert response.readline().startswith(b"HTTP/1.1 201")


def test_keep_alive_round_trips_do_not_stall_on_delayed_ack(served):
    """With headers and body in two sends and Nagle on, every warm
    keep-alive response waited for the client's delayed ACK (40 ms or
    more on Linux); one send with ``TCP_NODELAY`` answers at once."""
    client, _manager = served
    client.post("/v1/tenants", {"dataset_id": "warm", "attributes": ATTRIBUTES})
    client.post("/v1/tenants/warm/append", {"rows": rows(30)})
    connection = client.connect()
    try:
        round_trips = []
        for _ in range(40):
            started = time.perf_counter()
            status, _ = exchange(
                connection,
                "POST",
                "/v1/tenants/warm/query/similarity",
                {"first": "sector", "second": "trend"},
            )
            round_trips.append(time.perf_counter() - started)
            assert status == 200
    finally:
        connection.close()
    assert statistics.median(round_trips) < 0.020


# ------------------------------------------------------------ read-your-writes
def test_acknowledged_append_is_visible_to_the_next_request(served):
    client, _manager = served
    client.post("/v1/tenants", {"dataset_id": "ryw", "attributes": ATTRIBUTES})
    connection = client.connect()
    try:
        for batch in range(10):
            status, body = exchange(
                connection,
                "POST",
                "/v1/tenants/ryw/append",
                {"rows": rows(4, start=4 * batch)},
            )
            assert status == 200 and body["appended"] == 4
            status, body = exchange(
                connection,
                "POST",
                "/v1/tenants/ryw/query/similarity",
                {"first": "sector", "second": "volume"},
            )
            assert status == 200 and body["num_rows"] == 4 * (batch + 1)
    finally:
        connection.close()


def test_failed_publish_answers_503_tenant_unavailable(served, monkeypatch):
    client, _manager = served
    client.post("/v1/tenants", {"dataset_id": "flaky", "attributes": ATTRIBUTES})
    build = _Tenant._build_snapshot
    failures = [RuntimeError("clone failed")]

    def fails_once(tenant):
        if failures:
            raise failures.pop()
        return build(tenant)

    monkeypatch.setattr(_Tenant, "_build_snapshot", fails_once)
    started = time.monotonic()
    status, body = client.post("/v1/tenants/flaky/append", {"rows": rows(5)})
    assert time.monotonic() - started < 5.0
    assert status == 503
    assert body["error"]["code"] == "tenant_unavailable"
    assert body["error"]["detail"] == {"type": "TenantUnavailableError"}
    assert "logged durably" in body["error"]["message"]

    status, _ = client.post("/v1/tenants/flaky/append", {"rows": rows(5, start=5)})
    assert status == 200
    assert num_rows(client, "flaky") == 10
