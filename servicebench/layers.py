"""Per-layer metrics of a traced run, computed from the server's spans.

Every timing is reported as ``<stem>.count``, ``.sum``, ``.p50`` and
``.p99`` (milliseconds; nearest rank over whatever samples the phase
produced, 0 when it produced none).  Counts that would only repeat another
metric's count are left out; :data:`PER_LAYER` lists what is reported.
"""

from __future__ import annotations

from collections import defaultdict

import analysis
from analysis import Span
from workloads import READ_OPS

TIMINGS = (
    "http.handle_ms", "http.handle_self_ms", "http.network_wait_ms",
    *(f"service.query_ms.{op}" for op in READ_OPS),
    "service.append_ms", "service.queue_wait_ms", "service.publish_ms",
    "service.resolve_ms",
    "storage.append_self_ms", "storage.wal_append_ms", "storage.checkpoint_ms",
    "storage.open_ms",
    "engine.append_ms", "engine.refresh_ms", "engine.to_snapshot_ms",
    "engine.from_snapshot_ms", *(f"engine.query_ms.{op}" for op in READ_OPS),
    "hypergraph.adopt_ms", "hypergraph.stitch_ms", "hypergraph.shard_compile_ms",
    "core.similarity_graph_ms", "core.clustering_ms", "core.dominators_ms",
    "core.classify_ms",
)

#: Timings whose count equals another metric's, so it is not repeated.
_COUNT_REPEATS = {
    "http.handle_self_ms", "http.network_wait_ms", "service.queue_wait_ms",
    "service.publish_ms", "storage.append_self_ms", "hypergraph.adopt_ms",
    *(f"engine.query_ms.{op}" for op in READ_OPS),
}

SCALARS = {
    "service.publishes": "count",
    "service.rows_per_publish": "rows",
    "service.evictions": "count",
    "storage.wal_bytes_per_row": "bytes",
    "engine.shard_compiles": "count",
    "engine.table_rebuilds": "count",
    "engine.cache_hit_ratio": "ratio",
    "trace.unattributed_share.point": "ratio",
    "trace.unattributed_share.model": "ratio",
    "trace.unattributed_share.append": "ratio",
    "trace.overhead": "ms",
}


def _timing_metrics() -> dict[str, str]:
    metrics = {}
    for stem in TIMINGS:
        if stem not in _COUNT_REPEATS:
            metrics[f"{stem}.count"] = "count"
        for stat in ("sum", "p50", "p99"):
            metrics[f"{stem}.{stat}"] = "ms"
    return metrics


#: Every per-layer metric name and its unit, in report order.
PER_LAYER = {**_timing_metrics(), **SCALARS}

_SPAN_TIMINGS = {
    "service.append": "service.append_ms",
    "service.resolve": "service.resolve_ms",
    "storage.checkpoint": "storage.checkpoint_ms",
    "storage.open": "storage.open_ms",
    "engine.append": "engine.append_ms",
    "engine.refresh": "engine.refresh_ms",
    "engine.to_snapshot": "engine.to_snapshot_ms",
    "engine.from_snapshot": "engine.from_snapshot_ms",
    "hypergraph.adopt": "hypergraph.adopt_ms",
    "hypergraph.stitch": "hypergraph.stitch_ms",
    "hypergraph.shard_compile": "hypergraph.shard_compile_ms",
    "core.similarity_graph": "core.similarity_graph_ms",
    "core.clustering": "core.clustering_ms",
    "core.dominators": "core.dominators_ms",
    "core.classify": "core.classify_ms",
}


def load_spans(trace: dict) -> list[Span]:
    spans = []
    for event in trace["traceEvents"]:
        args = dict(event["args"])
        start = event["ts"] / 1e6
        spans.append(Span(
            args.pop("id"), args.pop("parent"), args.pop("request"), event["tid"],
            event["name"], start, start + event["dur"] / 1e6, args,
        ))
    return spans


def publish_intervals(spans: list[Span]) -> list[tuple[float, float]]:
    """Publishes as ``to_snapshot`` → ``from_snapshot`` → adopt → first index.

    A publish is a ``to_snapshot`` outside any storage call, ending with
    the first ``hypergraph.stitch`` that follows it on the same thread.
    """
    by_id = {span.id: span for span in spans}
    by_thread: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_thread[span.thread].append(span)
    intervals = []
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: s.start)
        opened = None
        for span in thread_spans:
            parent = by_id.get(span.parent)
            if span.name == "engine.to_snapshot" and not (
                parent and parent.name.startswith("storage.")
            ):
                opened = span.start
            elif span.name == "hypergraph.stitch" and opened is not None:
                intervals.append((opened, span.end))
                opened = None
    return intervals


def _timing(values_ms: list[float]) -> dict[str, float]:
    return {
        "count": len(values_ms),
        "sum": sum(values_ms),
        "p50": analysis.percentile(values_ms, 50, strict=False),
        "p99": analysis.percentile(values_ms, 99, strict=False),
    }


def per_layer(trace, traced, untraced, start, *, evictions):
    """``({metric: (value, unit)}, report)`` of one traced measured phase."""
    marks = trace["otherData"]["marks"]
    window_start = marks[0]["time"] if len(marks) > 1 else start
    spans = [s for s in load_spans(trace) if s.start >= window_start]
    analysis.pair_appends(spans)
    own = analysis.self_times(spans)
    by_id = {span.id: span for span in spans}
    ms = defaultdict(list)

    def parent_name(span):
        parent = by_id.get(span.parent)
        return parent.name if parent else ""

    handle_by_request = {}
    cache = [0, 0]
    wal_bytes = wal_rows = 0
    for span in spans:
        name, duration = span.name, span.duration * 1e3
        if name in _SPAN_TIMINGS:
            ms[_SPAN_TIMINGS[name]].append(duration)
        if name == "http.handle" and span.request is not None:
            ms["http.handle_ms"].append(duration)
            ms["http.handle_self_ms"].append(own[span.id] * 1e3)
            handle_by_request[span.request] = span.duration
        elif name.startswith("service.query."):
            ms[f"service.query_ms.{name.rsplit('.', 1)[1]}"].append(duration)
        elif name == "service.append":
            ms["service.queue_wait_ms"].append(own[span.id] * 1e3)
        elif name == "storage.append":
            ms["storage.append_self_ms"].append(own[span.id] * 1e3)
            wal_rows += span.args["rows"]
        elif name == "storage.wal_append" and parent_name(span) == "storage.append":
            ms["storage.wal_append_ms"].append(duration)
            wal_bytes += span.args["bytes"]
        elif name.startswith("engine.query.") and parent_name(span).startswith(
            "service.query."
        ):
            ms[f"engine.query_ms.{name.rsplit('.', 1)[1]}"].append(duration)
            cache[0] += span.args["hits"]
            cache[1] += span.args["misses"]
    publishes = publish_intervals(spans)
    ms["service.publish_ms"] = [(end - begin) * 1e3 for begin, end in publishes]

    latency = {}
    for o in traced:
        if o.ok and o.request.id in handle_by_request:
            latency[o.request.id] = o.done - o.scheduled
            ms["http.network_wait_ms"].append(
                o.service_ms - handle_by_request[o.request.id] * 1e3
            )

    metrics = {}
    for stem in TIMINGS:
        for stat, value in _timing(ms.get(stem, [])).items():
            name = f"{stem}.{stat}"
            if name in PER_LAYER:
                metrics[name] = value
    appended_rows = sum(
        len(o.request.rows) for o in traced if o.ok and o.request.op == "append"
    )
    first, last = marks[0]["engine"], marks[-1]["engine"]
    metrics.update({
        "service.publishes": len(publishes),
        "service.rows_per_publish": appended_rows / max(1, len(publishes)),
        "service.evictions": evictions,
        "storage.wal_bytes_per_row": wal_bytes / max(1, wal_rows),
        "engine.shard_compiles": last["shard_compiles"] - first["shard_compiles"],
        "engine.table_rebuilds": last["table_rebuilds"] - first["table_rebuilds"],
        "engine.cache_hit_ratio": cache[0] / max(1, cache[0] + cache[1]),
    })

    lines = ["  attribution of mean client latency (ms per request):"]
    klass_of = {o.request.id: o.request.klass for o in traced}
    for klass in ("point", "model", "append"):
        ids = {rid: lat for rid, lat in latency.items() if klass_of[rid] == klass}
        request_spans = [s for s in spans if s.request in ids]
        means, share = analysis.attribution(ids, request_spans)
        metrics[f"trace.unattributed_share.{klass}"] = share
        mean_ms = 1e3 * sum(ids.values()) / max(1, len(ids))
        parts = ", ".join(f"{layer} {v * 1e3:.3f}" for layer, v in sorted(means.items()))
        lines.append(
            f"    {klass:6s} n={len(ids):5d} mean {mean_ms:.3f} = {parts}, "
            f"unattributed {share * mean_ms:.3f} ({share:.1%})"
        )
    point_traced = [o.latency_ms for o in traced if o.ok and o.request.klass == "point"]
    point_plain = [o.latency_ms for o in untraced if o.ok and o.request.klass == "point"]
    metrics["trace.overhead"] = analysis.percentile(
        point_traced, 50
    ) - analysis.percentile(point_plain, 50)
    return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}, "\n".join(lines)


def add_client_spans(trace: dict, outcomes) -> None:
    """Add the client's view of each request (scheduled → answered)."""
    for o in outcomes:
        trace["traceEvents"].append({
            "name": f"client.{o.request.op}", "ph": "X", "ts": o.scheduled * 1e6,
            "dur": (o.done - o.scheduled) * 1e6, "pid": 0, "tid": 0,
            "args": {"request": o.request.id, "sent": o.sent * 1e6},
        })
