"""`repro.serve` — a concurrent, multi-tenant query service over the engine.

Layers, innermost first:

* :mod:`repro.serve.service` — the transport-agnostic core: per-tenant
  single-writer append queues, immutable engine snapshots published by
  atomic reference swap, LRU eviction to durable directories.
* :mod:`repro.serve.schemas` — typed request/response dataclasses and the
  ``{"error": {"code", "message", "detail"}}`` envelope.
* :mod:`repro.serve.http` — the stdlib ``ThreadingHTTPServer`` JSON
  transport, so the package never requires web dependencies.
"""

from repro.serve.service import EngineSnapshot, TenantManager, TenantStats

__all__ = ["EngineSnapshot", "TenantManager", "TenantStats"]
