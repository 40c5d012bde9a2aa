"""Request validation and the typed error envelope.

Requests must reject malformed payloads with field-level
:class:`~repro.exceptions.RequestValidationError` messages, and
:func:`~repro.serve.schemas.envelope_for` must map every library
exception to a stable, distinct ``(code, http_status)`` pair — most
specific class first, with an opaque ``internal`` fallback that leaks
nothing but the exception's class name.
"""

from __future__ import annotations

import pytest

from repro.exceptions import (
    ConfigurationError,
    EngineError,
    ObservabilityError,
    RequestValidationError,
    ServeError,
    SnapshotVersionError,
    StorageCorruptionError,
    StorageError,
    TenantExistsError,
    TenantNotFoundError,
    TenantUnavailableError,
)
from repro.serve import schemas


# ------------------------------------------------------------------ requests
def test_create_tenant_request_roundtrip():
    request = schemas.CreateTenantRequest.from_dict(
        {"dataset_id": "m1", "attributes": ["a", "b"], "heads": ["a"]}
    )
    assert request.dataset_id == "m1"
    assert request.attributes == ["a", "b"]
    assert request.heads == ["a"]
    assert request.values == []


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({}, "dataset_id"),
        ({"dataset_id": 7, "attributes": []}, "dataset_id"),
        ({"dataset_id": "m", "attributes": "ab"}, "attributes"),
        ({"dataset_id": "m", "attributes": [1, 2]}, "attributes"),
        ("not-a-mapping", "JSON object"),
    ],
)
def test_create_tenant_request_rejects(payload, fragment):
    with pytest.raises(RequestValidationError, match=fragment):
        schemas.CreateTenantRequest.from_dict(payload)


def test_append_request_accepts_lists_and_mappings():
    request = schemas.AppendRequest.from_dict(
        {"rows": [["x", "y"], {"a": "x"}]}
    )
    assert len(request.rows) == 2


def test_append_request_rejects_scalar_rows():
    with pytest.raises(RequestValidationError, match="each row"):
        schemas.AppendRequest.from_dict({"rows": ["scalar"]})


def test_neighbors_request_rejects_bool_masquerading_as_int():
    # bool subclasses int; a JSON `true` must not pass as a limit.
    with pytest.raises(RequestValidationError, match="limit"):
        schemas.NeighborsRequest.from_dict({"attribute": "a", "limit": True})
    request = schemas.NeighborsRequest.from_dict({"attribute": "a", "limit": 3})
    assert request.limit == 3 and request.min_similarity == 0.0


def test_classify_request_requires_string_evidence_keys():
    with pytest.raises(RequestValidationError, match="evidence"):
        schemas.ClassifyRequest.from_dict({"evidence": {1: "x"}})
    request = schemas.ClassifyRequest.from_dict(
        {"evidence": {"a": "x"}, "targets": ["b"]}
    )
    assert request.evidence == {"a": "x"} and request.targets == ["b"]


def test_dominators_request_defaults():
    request = schemas.DominatorsRequest.from_dict({})
    assert request.algorithm == "set-cover"
    assert request.top_fraction is None and request.target is None


# ------------------------------------------------------------------ envelope
@pytest.mark.parametrize(
    "error, code, status",
    [
        (RequestValidationError("bad"), "bad_request", 400),
        (TenantNotFoundError("gone"), "tenant_not_found", 404),
        (TenantExistsError("dup"), "tenant_exists", 409),
        (ServeError("nope"), "serve_error", 400),
        (SnapshotVersionError("stale"), "snapshot_version", 409),
        (ConfigurationError("cfg"), "bad_request", 400),
        (EngineError("arity"), "invalid_rows", 422),
        (StorageCorruptionError("crc"), "storage_corruption", 500),
        (StorageError("disk"), "storage_error", 503),
        (ObservabilityError("obs"), "engine_error", 500),
        (TenantUnavailableError("not yet"), "tenant_unavailable", 503),
    ],
)
def test_envelope_codes_are_distinct_and_specific(error, code, status):
    envelope = schemas.envelope_for(error)
    assert envelope.code == code
    assert envelope.http_status == status
    assert envelope.message == str(error)
    assert envelope.detail == {"type": type(error).__name__}


def test_envelope_wire_shape():
    body = schemas.envelope_for(TenantNotFoundError("no such tenant")).to_dict()
    assert set(body) == {"error"}
    assert set(body["error"]) == {"code", "message", "detail"}


def test_envelope_internal_fallback_hides_details():
    envelope = schemas.envelope_for(ZeroDivisionError("secret / 0"))
    assert envelope.code == "internal"
    assert envelope.http_status == 500
    assert "secret" not in envelope.message
    assert envelope.detail == {"type": "ZeroDivisionError"}
