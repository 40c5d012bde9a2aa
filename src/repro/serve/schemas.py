"""Typed request/response schemas and the error envelope for the serve tier.

Stdlib-only dataclasses (tier-1 must exercise the service without web
dependencies): every request validates itself in ``from_dict`` — raising
:class:`~repro.exceptions.RequestValidationError` with a field-level
message — and every response serializes itself in ``to_dict``.

The error envelope maps the library's exception hierarchy onto distinct
wire codes (and HTTP statuses), so clients can distinguish a malformed
request from a missing tenant from corrupted durable state without
parsing prose.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.core.classifier import Prediction
from repro.core.clustering import AttributeClustering
from repro.core.dominators import DominatorResult
from repro.exceptions import (
    ConfigurationError,
    EngineError,
    ReproError,
    RequestValidationError,
    ServeError,
    SnapshotVersionError,
    StorageCorruptionError,
    StorageError,
    TenantExistsError,
    TenantNotFoundError,
    TenantOverloadedError,
    TenantUnavailableError,
)
from repro.serve.service import EngineSnapshot, ManagerStats, TenantStats

__all__ = [
    "AppendRequest",
    "AppendResponse",
    "ClassifyRequest",
    "ClassifyResponse",
    "ClustersRequest",
    "ClustersResponse",
    "CreateTenantRequest",
    "DominatorsRequest",
    "DominatorsResponse",
    "ErrorEnvelope",
    "HealthResponse",
    "NeighborsRequest",
    "NeighborsResponse",
    "SimilarityRequest",
    "SimilarityResponse",
    "StatsResponse",
    "TenantResponse",
    "envelope_for",
]


# ---------------------------------------------------------------- validation
def _require(payload: Mapping[str, Any], name: str, kind: type | tuple) -> Any:
    if not isinstance(payload, Mapping):
        raise RequestValidationError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    if name not in payload:
        raise RequestValidationError(f"missing required field {name!r}")
    value = payload[name]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    # bool subclasses int; reject it unless bool was explicitly asked for.
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        expected = "/".join(k.__name__ for k in kinds)
        raise RequestValidationError(
            f"field {name!r} must be {expected}, got {type(value).__name__}"
        )
    return value


def _optional(
    payload: Mapping[str, Any], name: str, kind: type | tuple, default: Any = None
) -> Any:
    if not isinstance(payload, Mapping) or payload.get(name) is None:
        return default
    return _require(payload, name, kind)


def _str_list(payload: Mapping[str, Any], name: str, *, optional: bool = False):
    value = (
        _optional(payload, name, list) if optional else _require(payload, name, list)
    )
    if value is None:
        return None
    if not all(isinstance(item, str) for item in value):
        raise RequestValidationError(f"field {name!r} must be a list of strings")
    return list(value)


# ---------------------------------------------------------------- requests
@dataclass(frozen=True)
class CreateTenantRequest:
    """POST /v1/tenants — initialize a new dataset."""

    dataset_id: str
    attributes: list[str]
    heads: list[str] | None = None
    values: list[Any] = field(default_factory=list)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CreateTenantRequest":
        return cls(
            dataset_id=_require(payload, "dataset_id", str),
            attributes=_str_list(payload, "attributes"),
            heads=_str_list(payload, "heads", optional=True),
            values=list(_optional(payload, "values", list, default=[])),
        )


@dataclass(frozen=True)
class AppendRequest:
    """POST /v1/tenants/{id}/append — durably append a row batch."""

    rows: list[Any]

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AppendRequest":
        rows = _require(payload, "rows", list)
        for row in rows:
            if not isinstance(row, (list, dict)):
                raise RequestValidationError(
                    "each row must be a list of values or an "
                    f"attribute-to-value object, got {type(row).__name__}"
                )
        return cls(rows=rows)


@dataclass(frozen=True)
class SimilarityRequest:
    """POST /v1/tenants/{id}/query/similarity."""

    first: str
    second: str

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimilarityRequest":
        return cls(
            first=_require(payload, "first", str),
            second=_require(payload, "second", str),
        )


@dataclass(frozen=True)
class NeighborsRequest:
    """POST /v1/tenants/{id}/query/neighbors."""

    attribute: str
    limit: int | None = None
    min_similarity: float = 0.0

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "NeighborsRequest":
        return cls(
            attribute=_require(payload, "attribute", str),
            limit=_optional(payload, "limit", int),
            min_similarity=float(
                _optional(payload, "min_similarity", (int, float), default=0.0)
            ),
        )


@dataclass(frozen=True)
class ClustersRequest:
    """POST /v1/tenants/{id}/query/clusters."""

    t: int | None = None
    first_center: str | None = None

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ClustersRequest":
        return cls(
            t=_optional(payload, "t", int),
            first_center=_optional(payload, "first_center", str),
        )


@dataclass(frozen=True)
class DominatorsRequest:
    """POST /v1/tenants/{id}/query/dominators."""

    algorithm: str = "set-cover"
    top_fraction: float | None = None
    target: list[str] | None = None

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DominatorsRequest":
        return cls(
            algorithm=_optional(payload, "algorithm", str, default="set-cover"),
            top_fraction=_optional(payload, "top_fraction", (int, float)),
            target=_str_list(payload, "target", optional=True),
        )


@dataclass(frozen=True)
class ClassifyRequest:
    """POST /v1/tenants/{id}/query/classify."""

    evidence: dict[str, Any]
    targets: list[str] | None = None

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ClassifyRequest":
        evidence = _require(payload, "evidence", dict)
        if not all(isinstance(key, str) for key in evidence):
            raise RequestValidationError("evidence keys must be attribute names")
        return cls(
            evidence=dict(evidence),
            targets=_str_list(payload, "targets", optional=True),
        )


# ---------------------------------------------------------------- responses
def _snapshot_fields(snapshot: EngineSnapshot) -> dict[str, Any]:
    return {
        "dataset_id": snapshot.dataset_id,
        "version": snapshot.version,
        "num_rows": snapshot.num_rows,
    }


@dataclass(frozen=True)
class SimilarityResponse:
    dataset_id: str
    version: int
    num_rows: int
    first: str
    second: str
    similarity: float

    @classmethod
    def build(
        cls, request: SimilarityRequest, value: float, snapshot: EngineSnapshot
    ) -> "SimilarityResponse":
        return cls(
            first=request.first,
            second=request.second,
            similarity=value,
            **_snapshot_fields(snapshot),
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class NeighborsResponse:
    dataset_id: str
    version: int
    num_rows: int
    attribute: str
    neighbors: list[dict[str, Any]]

    @classmethod
    def build(
        cls, request: NeighborsRequest, scored, snapshot: EngineSnapshot
    ) -> "NeighborsResponse":
        return cls(
            attribute=request.attribute,
            neighbors=[
                {"attribute": other, "similarity": sim} for other, sim in scored
            ],
            **_snapshot_fields(snapshot),
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ClustersResponse:
    dataset_id: str
    version: int
    num_rows: int
    centers: list[str]
    clusters: dict[str, list[str]]

    @classmethod
    def build(
        cls, clustering: AttributeClustering, snapshot: EngineSnapshot
    ) -> "ClustersResponse":
        return cls(
            centers=[str(center) for center in clustering.centers],
            clusters={
                str(center): [str(member) for member in members]
                for center, members in clustering.clusters.items()
            },
            **_snapshot_fields(snapshot),
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class DominatorsResponse:
    dataset_id: str
    version: int
    num_rows: int
    algorithm: str
    dominators: list[str]
    covered: list[str]
    uncovered: list[str]
    coverage: float

    @classmethod
    def build(
        cls,
        request: DominatorsRequest,
        result: DominatorResult,
        snapshot: EngineSnapshot,
    ) -> "DominatorsResponse":
        return cls(
            algorithm=request.algorithm,
            dominators=[str(v) for v in result.dominators],
            covered=sorted(str(v) for v in result.covered),
            uncovered=sorted(str(v) for v in result.uncovered),
            coverage=result.coverage,
            **_snapshot_fields(snapshot),
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _prediction_dict(prediction: Prediction) -> dict[str, Any]:
    return {
        "value": prediction.value,
        "confidence": prediction.confidence,
        "abstained": prediction.is_abstention,
        "supporting_edges": prediction.supporting_edges,
        # JSON object keys must be strings; domain values are small
        # scalars, so ``str`` round-trips unambiguously for display.
        "votes": {str(value): vote for value, vote in prediction.votes.items()},
    }


@dataclass(frozen=True)
class ClassifyResponse:
    dataset_id: str
    version: int
    num_rows: int
    predictions: dict[str, dict[str, Any]]

    @classmethod
    def build(
        cls, predictions: Mapping[str, Prediction], snapshot: EngineSnapshot
    ) -> "ClassifyResponse":
        return cls(
            predictions={
                str(target): _prediction_dict(prediction)
                for target, prediction in predictions.items()
            },
            **_snapshot_fields(snapshot),
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class AppendResponse:
    dataset_id: str
    appended: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class TenantResponse:
    dataset_id: str
    version: int
    num_rows: int
    num_attributes: int
    queue_depth: int
    publishes: int
    resident: bool

    @classmethod
    def build(cls, stats: TenantStats) -> "TenantResponse":
        return cls(**asdict(stats))

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class HealthResponse:
    status: str
    resident_tenants: int
    known_datasets: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class StatsResponse:
    resident_tenants: int
    max_tenants: int
    known_datasets: int
    evictions: int
    in_flight_queries: int
    appends_shed: int
    tenants: dict[str, dict[str, Any]]

    @classmethod
    def build(cls, stats: ManagerStats) -> "StatsResponse":
        return cls(
            resident_tenants=stats.resident_tenants,
            max_tenants=stats.max_tenants,
            known_datasets=stats.known_datasets,
            evictions=stats.evictions,
            in_flight_queries=stats.in_flight_queries,
            appends_shed=stats.appends_shed,
            tenants={name: asdict(t) for name, t in stats.tenants.items()},
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# ---------------------------------------------------------------- errors
@dataclass(frozen=True)
class ErrorEnvelope:
    """The typed error body every transport returns on failure."""

    code: str
    message: str
    http_status: int
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "error": {"code": self.code, "message": self.message, "detail": self.detail}
        }


#: Exception-to-code mapping, most specific class first (the first match
#: wins, so subclasses must precede their bases).
_ERROR_CODES: tuple[tuple[type, str, int], ...] = (
    (RequestValidationError, "bad_request", 400),
    (TenantNotFoundError, "tenant_not_found", 404),
    (TenantExistsError, "tenant_exists", 409),
    (TenantOverloadedError, "overloaded", 503),
    (TenantUnavailableError, "tenant_unavailable", 503),
    (ServeError, "serve_error", 400),
    (SnapshotVersionError, "snapshot_version", 409),
    (ConfigurationError, "bad_request", 400),
    (EngineError, "invalid_rows", 422),
    (StorageCorruptionError, "storage_corruption", 500),
    (StorageError, "storage_error", 503),
    (ReproError, "engine_error", 500),
)


def envelope_for(error: BaseException) -> ErrorEnvelope:
    """Map an exception to its typed wire envelope.

    Library errors get stable, distinct codes; anything else is an opaque
    ``internal`` 500 whose detail names only the exception class (no
    stack traces on the wire).
    """
    for cls, code, status in _ERROR_CODES:
        if isinstance(error, cls):
            return ErrorEnvelope(
                code=code,
                message=str(error),
                http_status=status,
                detail={"type": type(error).__name__},
            )
    return ErrorEnvelope(
        code="internal",
        message="internal server error",
        http_status=500,
        detail={"type": type(error).__name__},
    )
