"""The correctness check every run ends with.

After the server was killed and relaunched on the same root, every tenant
must hold every acknowledged row, and its answers to a fixed probe set must
equal (``==``, after the same JSON encoding) the answers of an in-process
:class:`~repro.engine.AssociationEngine` built from the same rows in the
order the tenant acknowledged them.
"""

from __future__ import annotations

import json

from server import build_config
from workloads import Request, Workload, probe_requests

#: Response fields that describe the serving snapshot, not the answer.
_SNAPSHOT_FIELDS = ("version",)


def reference_answers(
    w: Workload, tenant: str, batches: list[list[list[int]]]
) -> dict[int, dict]:
    """Probe answers of an in-process engine fed ``batches`` in order."""
    from repro.engine import AssociationEngine
    from repro.serve import schemas
    from repro.serve.service import EngineSnapshot

    engine = AssociationEngine(
        w.attributes, build_config(w.config), values=w.values
    )
    for batch in batches:
        engine.append_rows(batch)
    snapshot = EngineSnapshot(tenant, 0, engine.num_observations, engine, 0.0)
    answers = {}
    for index, (op, params) in enumerate(probe_requests(w)):
        if op == "similarity":
            request = schemas.SimilarityRequest.from_dict(params)
            value = engine.similarity(request.first, request.second)
            response = schemas.SimilarityResponse.build(request, value, snapshot)
        elif op == "neighbors":
            request = schemas.NeighborsRequest.from_dict(params)
            scored = engine.neighbors(
                request.attribute,
                limit=request.limit,
                min_similarity=request.min_similarity,
            )
            response = schemas.NeighborsResponse.build(request, scored, snapshot)
        elif op == "clusters":
            request = schemas.ClustersRequest.from_dict(params)
            clustering = engine.clusters(t=request.t, first_center=request.first_center)
            response = schemas.ClustersResponse.build(clustering, snapshot)
        elif op == "dominators":
            request = schemas.DominatorsRequest.from_dict(params)
            result = engine.dominators(
                algorithm=request.algorithm,
                top_fraction=request.top_fraction,
                target=request.target,
            )
            response = schemas.DominatorsResponse.build(request, result, snapshot)
        else:
            request = schemas.ClassifyRequest.from_dict(params)
            predictions = engine.classify(request.evidence, targets=request.targets)
            response = schemas.ClassifyResponse.build(predictions, snapshot)
        answers[index] = comparable(json.loads(json.dumps(response.to_dict())))
    return answers


def probe_schedule(w: Workload, tenants: list[str]) -> list[Request]:
    """Every probe of every tenant, all due at once."""
    return [
        Request("check", index, 0.0, op, tenant,
                f"/v1/tenants/{tenant}/query/{op}", json.dumps(params).encode())
        for tenant in tenants
        for index, (op, params) in enumerate(probe_requests(w))
    ]


def comparable(body: dict) -> dict:
    return {k: v for k, v in body.items() if k not in _SNAPSHOT_FIELDS}


def compare(
    w: Workload,
    tenant: str,
    expected_rows: int,
    served: dict[int, dict],
    reference: dict[int, dict],
) -> list[str]:
    """Human-readable mismatches between served and reference answers."""
    problems = []
    probes = probe_requests(w)
    for index, body in served.items():
        if body.get("num_rows") != expected_rows:
            problems.append(
                f"{tenant}: probe {index} answered at num_rows="
                f"{body.get('num_rows')}, expected {expected_rows}"
            )
        elif comparable(body) != reference[index]:
            op, params = probes[index]
            problems.append(f"{tenant}: {op} {params} differs from the reference")
    return problems
