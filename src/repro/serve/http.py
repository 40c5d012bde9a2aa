"""Stdlib JSON-over-HTTP transport for the serving tier.

A :class:`ThreadingHTTPServer` front end over
:class:`~repro.serve.service.TenantManager` — one handler thread per
connection, every handler serving queries from the tenant's published
snapshot, so the transport inherits the service core's guarantee that no
query blocks on an append.  Tier-1 exercises this transport end-to-end
(no third-party web dependencies).

Endpoints
---------
=======  ==================================  =====================================
Method   Path                                Meaning
=======  ==================================  =====================================
GET      ``/health``                         liveness + tenant counts
GET      ``/stats``                          manager-wide operational stats
GET      ``/metrics``                        Prometheus text exposition
GET      ``/v1/tenants``                     known dataset ids
POST     ``/v1/tenants``                     create a dataset
GET      ``/v1/tenants/{id}``                one tenant's stats
DELETE   ``/v1/tenants/{id}``                evict (checkpoint + close; data kept)
POST     ``/v1/tenants/{id}/append``         durably append rows
POST     ``/v1/tenants/{id}/query/{op}``     similarity | neighbors | clusters |
                                             dominators | classify
=======  ==================================  =====================================

Every error body is the typed envelope of
:func:`repro.serve.schemas.envelope_for`:
``{"error": {"code", "message", "detail"}}``.

A response leaves the server in one send — the handler's buffered
``wfile`` is flushed once per request — on a socket with ``TCP_NODELAY``
set, so a body too large for the buffer does not wait either.  Written
as two sends with Nagle's algorithm on, a keep-alive response's body
waited for the client's delayed ACK (about 40 ms on Linux).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro import obs
from repro.exceptions import RequestValidationError
from repro.obs.export import to_prometheus
from repro.serve import schemas
from repro.serve.service import TenantManager

__all__ = ["ServeHTTPServer", "create_server", "run"]

_MAX_BODY_BYTES = 64 * 1024 * 1024

_OBS_REQUESTS = obs.counter("serve.http.requests", "HTTP requests handled")
_OBS_ERRORS = obs.counter("serve.http.errors", "HTTP requests answered 4xx/5xx")


def _query_similarity(manager, dataset_id, payload):
    request = schemas.SimilarityRequest.from_dict(payload)
    value, snapshot = manager.query(
        dataset_id, "similarity", first=request.first, second=request.second
    )
    return schemas.SimilarityResponse.build(request, value, snapshot)


def _query_neighbors(manager, dataset_id, payload):
    request = schemas.NeighborsRequest.from_dict(payload)
    scored, snapshot = manager.query(
        dataset_id,
        "neighbors",
        attribute=request.attribute,
        limit=request.limit,
        min_similarity=request.min_similarity,
    )
    return schemas.NeighborsResponse.build(request, scored, snapshot)


def _query_clusters(manager, dataset_id, payload):
    request = schemas.ClustersRequest.from_dict(payload)
    clustering, snapshot = manager.query(
        dataset_id, "clusters", t=request.t, first_center=request.first_center
    )
    return schemas.ClustersResponse.build(clustering, snapshot)


def _query_dominators(manager, dataset_id, payload):
    request = schemas.DominatorsRequest.from_dict(payload)
    result, snapshot = manager.query(
        dataset_id,
        "dominators",
        algorithm=request.algorithm,
        top_fraction=request.top_fraction,
        target=request.target,
    )
    return schemas.DominatorsResponse.build(request, result, snapshot)


def _query_classify(manager, dataset_id, payload):
    request = schemas.ClassifyRequest.from_dict(payload)
    predictions, snapshot = manager.query(
        dataset_id, "classify", evidence=request.evidence, targets=request.targets
    )
    return schemas.ClassifyResponse.build(predictions, snapshot)


_QUERY_HANDLERS: dict[str, Callable] = {
    "similarity": _query_similarity,
    "neighbors": _query_neighbors,
    "clusters": _query_clusters,
    "dominators": _query_dominators,
    "classify": _query_classify,
}


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the server's tenant manager."""

    protocol_version = "HTTP/1.1"
    # The stdlib's own hooks: TCP_NODELAY on every accepted socket, and a
    # buffered ``wfile`` that ``handle_one_request`` flushes once per
    # request (``finish`` on close, after ``send_error``), so headers and
    # body leave together.  NODELAY covers what still takes more than one
    # send: bodies larger than the buffer.
    disable_nagle_algorithm = True
    wbufsize = -1
    server: "ServeHTTPServer"

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def handle_expect_100(self) -> bool:
        # The client holds the body back until "100 Continue" arrives, so
        # it cannot wait in the buffer for the response.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send(
        self, status: int, data: bytes, content_type: str = "application/json"
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            raise RequestValidationError(
                f"request body of {length} bytes exceeds {_MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except ValueError as error:
            raise RequestValidationError(f"request body is not JSON: {error}")

    # ------------------------------------------------------------- dispatch
    def _route(self, method: str) -> None:
        _OBS_REQUESTS.inc()
        manager = self.server.manager
        parts = [part for part in self.path.split("?", 1)[0].split("/") if part]
        try:
            if method == "GET" and parts == ["metrics"]:
                text = to_prometheus(obs.active_registry()).encode("utf-8")
                self._send(200, text, "text/plain; version=0.0.4")
                return
            response = self._dispatch(method, manager, parts)
            if response is None:
                raise RequestValidationError(f"no route for {method} {self.path}")
        except Exception as error:  # every failure leaves as a typed envelope
            envelope = schemas.envelope_for(error)
            _OBS_ERRORS.inc()
            response = envelope.http_status, envelope.to_dict()
        status, body = response
        self._send(status, json.dumps(body).encode("utf-8"))

    def _dispatch(self, method: str, manager: TenantManager, parts: list[str]) -> Any:
        if method == "GET" and parts == ["health"]:
            stats = manager.stats()
            return 200, schemas.HealthResponse(
                status="ok",
                resident_tenants=stats.resident_tenants,
                known_datasets=stats.known_datasets,
            ).to_dict()
        if method == "GET" and parts == ["stats"]:
            return 200, schemas.StatsResponse.build(manager.stats()).to_dict()
        if parts[:2] == ["v1", "tenants"]:
            return self._dispatch_tenants(method, manager, parts[2:])
        return None

    def _dispatch_tenants(
        self, method: str, manager: TenantManager, rest: list[str]
    ) -> tuple[int, dict[str, Any]] | None:
        if not rest:
            if method == "GET":
                return 200, {"datasets": list(manager.known_datasets())}
            if method == "POST":
                request = schemas.CreateTenantRequest.from_dict(self._read_json())
                stats = manager.create_tenant(
                    request.dataset_id,
                    request.attributes,
                    heads=request.heads,
                    values=request.values,
                )
                return 201, schemas.TenantResponse.build(stats).to_dict()
            return None
        dataset_id, action = rest[0], rest[1:]
        if not action:
            if method == "GET":
                stats = manager.tenant_stats(dataset_id)
                return 200, schemas.TenantResponse.build(stats).to_dict()
            if method == "DELETE":
                evicted = manager.evict(dataset_id)
                return 200, {"dataset_id": dataset_id, "evicted": evicted}
            return None
        if method == "POST" and action == ["append"]:
            request = schemas.AppendRequest.from_dict(self._read_json())
            appended = manager.append(dataset_id, request.rows)
            return 200, schemas.AppendResponse(
                dataset_id=dataset_id, appended=appended
            ).to_dict()
        if method == "POST" and len(action) == 2 and action[0] == "query":
            handler = _QUERY_HANDLERS.get(action[1])
            if handler is None:
                raise RequestValidationError(
                    f"unknown query operation {action[1]!r}; expected one of "
                    f"{sorted(_QUERY_HANDLERS)}"
                )
            response = handler(manager, dataset_id, self._read_json())
            return 200, response.to_dict()
        return None

    # ------------------------------------------------------------- verbs
    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def do_DELETE(self) -> None:
        self._route("DELETE")


class ServeHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP server bound to one :class:`TenantManager`.

    With ``workers`` set, connections are handled on a bounded thread
    pool instead of one unbounded thread per connection — the production
    shape, where a traffic burst queues instead of spawning without
    limit.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        manager: TenantManager,
        *,
        workers: int | None = None,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.manager = manager
        self.verbose = verbose
        self._executor = (
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix="serve-http")
            if workers
            else None
        )

    def process_request(self, request, client_address) -> None:
        if self._executor is None:
            super().process_request(request, client_address)
            return
        self._executor.submit(self.process_request_thread, request, client_address)

    def server_close(self) -> None:
        super().server_close()
        if self._executor is not None:
            self._executor.shutdown(wait=False)


def create_server(
    manager: TenantManager,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int | None = None,
    verbose: bool = False,
) -> ServeHTTPServer:
    """Bind (but do not start) the threaded JSON transport.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``) — the form the tests use.
    """
    return ServeHTTPServer((host, port), manager, workers=workers, verbose=verbose)


def run(
    manager: TenantManager,
    *,
    host: str = "127.0.0.1",
    port: int = 8722,
    workers: int | None = None,
    verbose: bool = False,
) -> None:
    """Serve until interrupted; closes the manager (checkpointing) on exit."""
    server = create_server(
        manager, host=host, port=port, workers=workers, verbose=verbose
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
        manager.close()
