"""Spans around the public calls of each layer, recorded in the server child.

:func:`install` wraps the calls named below in place, before the server
builds its :class:`~repro.serve.TenantManager`; no source file of the
program changes.  Every span keeps its name, start, end, parent span and
the request it belongs to (the ``X-Bench-Request`` header the benchmark's
client sends).  Spans live in memory until :meth:`Tracer.dump` writes them
out in Chrome-trace format.

Span names are the per-layer metric stems:

==========================  ===============================================
span                        wrapped call
==========================  ===============================================
``http.handle``             ``_Handler.do_GET`` / ``do_POST``
``service.query``           ``TenantManager.query``
``service.append``          ``TenantManager.append``
``service.resolve``         ``TenantManager.snapshot``
``storage.append``          ``DurableEngine.append_rows``
``storage.wal_append``      ``WriteAheadLog.append``
``storage.checkpoint``      ``DurableEngine.checkpoint``
``storage.open``            ``DurableEngine.open``
``storage.close``           ``DurableEngine.close`` (eviction, for attribution)
``engine.append``           ``AssociationEngine.append_rows``
``engine.refresh``          ``AssociationEngine.refresh``
``engine.to_snapshot``      ``AssociationEngine.to_snapshot``
``engine.from_snapshot``    ``AssociationEngine.from_snapshot``
``engine.query.<op>``       the five ``AssociationEngine`` query methods
``hypergraph.adopt``        ``AssociationEngine.adopt_compiled_shards``
``hypergraph.stitch``       first ``AssociationEngine.index`` per engine
``hypergraph.shard_compile``  ``AssociationEngine.compiled_shard``
``core.<name>``             the ``repro.core`` functions the engine binds
==========================  ===============================================
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import weakref
from collections import Counter
from pathlib import Path
from typing import Any, Callable

clock = time.perf_counter

#: Live-engine counters summed into the trace (``engine.<name>``);
#: ``shard_compiles`` counts every shard a live engine compiled.
ENGINE_COUNTERS = ("shard_compiles", "table_rebuilds")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.marks: list[dict[str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._live: dict[int, Any] = {}
        self._closed: Counter = Counter()

    # ------------------------------------------------------------- spans
    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        *,
        request: Callable[..., Any] | None = None,
        around: Callable[..., tuple[Any, dict]] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name`` may be a function of the call's arguments; ``request``
        extracts a request id (otherwise the parent span's is inherited);
        ``around(call, args, kwargs)`` runs the call itself and returns
        ``(result, extra span args)``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else (None, None)
            request_id = request(*args) if request else parent[1]
            span_id = next(self._ids)
            stack.append((span_id, request_id))
            extra = None
            start = clock()
            try:
                if around is None:
                    return fn(*args, **kwargs)
                result, extra = around(lambda: fn(*args, **kwargs), args, kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                label = name(*args, **kwargs) if callable(name) else name
                self.spans.append(
                    (span_id, parent[0], request_id, threading.get_ident(),
                     label, start, end, extra)
                )

        return wrapper

    # ------------------------------------------------------------- counters
    def watch(self, durable: Any) -> Any:
        self._live[id(durable)] = durable
        return durable

    def retire(self, durable: Any) -> None:
        if self._live.pop(id(durable), None) is not None:
            self._closed.update(self._counters(durable))

    @staticmethod
    def _counters(durable: Any) -> Counter:
        engine = durable.engine
        counters = engine.counters
        # A full compile rebuilds every head's shard at once.
        shards = counters.shard_compiles + counters.full_compiles * len(
            engine.head_attributes
        )
        return Counter(shard_compiles=shards, table_rebuilds=counters.table_rebuilds)

    def engine_totals(self) -> dict[str, int]:
        totals = Counter(self._closed)
        for durable in list(self._live.values()):
            totals.update(self._counters(durable))
        return {name: totals[name] for name in ENGINE_COUNTERS}

    def mark(self) -> None:
        self.marks.append({"time": clock(), "engine": self.engine_totals()})

    # ------------------------------------------------------------- output
    def dump(self, path: str | Path) -> None:
        """Write the spans as a Chrome trace (atomically: tmp + rename)."""
        pid = os.getpid()
        events = []
        for span_id, parent, request, thread, name, start, end, extra in list(
            self.spans
        ):
            args = {"id": span_id, "parent": parent, "request": request}
            args.update(extra or {})
            events.append(
                {"name": name, "ph": "X", "ts": start * 1e6,
                 "dur": (end - start) * 1e6, "pid": pid, "tid": thread,
                 "args": args}
            )
        self.mark()
        document = {"traceEvents": events, "otherData": {"marks": self.marks}}
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps(document))
        os.replace(tmp, path)


def _patch(owner: Any, attr: str, wrapper_for: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` (function, classmethod or property getter)."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrapper_for(raw.__func__)))
    elif isinstance(raw, property):
        setattr(owner, attr, property(wrapper_for(raw.fget)))
    else:
        setattr(owner, attr, wrapper_for(raw))


def install() -> Tracer:
    """Wrap every traced call; returns the tracer that records them."""
    from repro.core.classifier import AssociationBasedClassifier
    from repro.engine import engine as engine_module
    from repro.engine.engine import AssociationEngine
    from repro.serve import http as http_module
    from repro.serve.service import TenantManager
    from repro.storage.durable import DurableEngine
    from repro.storage.wal import WriteAheadLog

    tracer = Tracer()
    wrap = tracer.wrap

    def request_header(handler, *_):
        return handler.headers.get("X-Bench-Request")

    for verb in ("do_GET", "do_POST"):
        _patch(http_module._Handler, verb,
               lambda fn: wrap("http.handle", fn, request=request_header))

    def tenant_of_append(call, args, kwargs):
        return call(), {"tenant": args[1], "rows": len(args[2])}

    _patch(TenantManager, "query",
           lambda fn: wrap(lambda self, dataset, op, **_: f"service.query.{op}", fn))
    _patch(TenantManager, "append",
           lambda fn: wrap("service.append", fn, around=tenant_of_append))
    _patch(TenantManager, "snapshot", lambda fn: wrap("service.resolve", fn))

    def durable_append(call, args, kwargs):
        return call(), {"tenant": args[0].directory.name, "rows": len(args[1])}

    def wal_bytes(call, args, kwargs):
        before = args[0].tail
        after = call()
        same = after.segment == before.segment
        size = after.offset - before.offset if same else len(args[2])
        return after, {"bytes": size}

    def watched(call, args, kwargs):
        return tracer.watch(call()), None

    def retiring(call, args, kwargs):
        tracer.retire(args[0])
        return call(), None

    _patch(DurableEngine, "append_rows",
           lambda fn: wrap("storage.append", fn, around=durable_append))
    _patch(WriteAheadLog, "append",
           lambda fn: wrap("storage.wal_append", fn, around=wal_bytes))
    _patch(DurableEngine, "checkpoint", lambda fn: wrap("storage.checkpoint", fn))
    _patch(DurableEngine, "open",
           lambda fn: wrap("storage.open", fn, around=watched))
    _patch(DurableEngine, "create", lambda fn: functools.wraps(fn)(
        lambda *a, **k: tracer.watch(fn(*a, **k))))
    _patch(DurableEngine, "close", lambda fn: wrap("storage.close", fn,
                                                    around=retiring))

    for method, span in (
        ("append_rows", "engine.append"),
        ("refresh", "engine.refresh"),
        ("to_snapshot", "engine.to_snapshot"),
        ("from_snapshot", "engine.from_snapshot"),
        ("adopt_compiled_shards", "hypergraph.adopt"),
        ("compiled_shard", "hypergraph.shard_compile"),
    ):
        _patch(AssociationEngine, method, lambda fn, span=span: wrap(span, fn))

    def cache_delta(call, args, kwargs):
        before = args[0].cache_stats
        result = call()
        after = args[0].cache_stats
        return result, {"hits": after.hits - before.hits,
                        "misses": after.misses - before.misses}

    for op in ("similarity", "neighbors", "clusters", "dominators", "classify"):
        _patch(AssociationEngine, op,
               lambda fn, op=op: wrap(f"engine.query.{op}", fn, around=cache_delta))

    stitched: weakref.WeakSet = weakref.WeakSet()

    def first_index(fget):
        traced = wrap("hypergraph.stitch", fget)

        def getter(engine):
            if engine in stitched:
                return fget(engine)
            stitched.add(engine)
            return traced(engine)

        return getter

    _patch(AssociationEngine, "index", first_index)

    for name, span in (
        ("build_similarity_graph", "core.similarity_graph"),
        ("cluster_attributes", "core.clustering"),
        ("dominator_set_cover", "core.dominators"),
        ("dominator_greedy_cover", "core.dominators"),
    ):
        setattr(engine_module, name,
                wrap(span, getattr(engine_module, name)))
    _patch(AssociationBasedClassifier, "predict_attribute",
           lambda fn: wrap("core.classify", fn))
    return tracer
