"""Exporters: Prometheus text, Chrome ``trace_event`` JSON, pretty text.

Three consumers, three formats:

* :func:`to_prometheus` — the text exposition format a Prometheus scrape
  endpoint serves.  Counters become ``<name>_total``, histograms become
  the cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` triple.
* :func:`to_chrome_trace` — a ``trace_event`` document for
  ``chrome://tracing`` / Perfetto: one complete (``"ph": "X"``) event per
  finished span, microsecond timestamps, span attributes under ``args``.
* :func:`format_snapshot` — human-readable tables for the CLI ``stats``
  subcommand.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "format_snapshot",
    "to_chrome_trace",
    "to_prometheus",
]


def _prom_name(name: str) -> str:
    """A registry name as a Prometheus metric name (dots to underscores)."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _prom_float(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(value)


def to_prometheus(registry: Any) -> str:
    """The registry's instruments in Prometheus text exposition format."""
    lines: list[str] = []
    for name, instrument in sorted(registry.instruments().items()):
        metric = _prom_name(name)
        kind = instrument.kind
        if instrument.description:
            lines.append(f"# HELP {metric} {instrument.description}")
        if kind == "counter":
            lines.append(f"# TYPE {metric}_total counter")
            lines.append(f"{metric}_total {instrument.value}")
        elif kind == "gauge":
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_float(instrument.value)}")
        else:
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            counts = instrument.bucket_counts()
            for edge, count in zip(instrument.boundaries, counts):
                cumulative += count
                lines.append(
                    f'{metric}_bucket{{le="{_prom_float(edge)}"}} {cumulative}'
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {instrument.count}')
            lines.append(f"{metric}_sum {_prom_float(instrument.sum)}")
            lines.append(f"{metric}_count {instrument.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_chrome_trace(tracer: Any) -> dict[str, Any]:
    """The tracer's finished spans as a Chrome ``trace_event`` document.

    Timestamps and durations are microseconds (the format's unit), taken
    from each span's monotonic ``perf_counter_ns`` clock; attributes ride
    along under ``args``.  Load the JSON in ``chrome://tracing`` or
    https://ui.perfetto.dev.
    """
    events = []
    for span in tracer.spans:
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start_ns / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": 1,
                "tid": span.thread_id,
                "args": dict(span.attributes),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _format_seconds(seconds: float) -> str:
    if math.isnan(seconds):
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.1f}us"


def format_snapshot(snapshot: dict[str, dict[str, Any]]) -> str:
    """A registry snapshot as aligned, human-readable text."""
    sections: list[str] = []

    counters = snapshot.get("counters", {})
    if counters:
        width = max(len(name) for name in counters)
        lines = ["counters:"]
        for name in sorted(counters):
            lines.append(f"  {name.ljust(width)}  {counters[name]}")
        sections.append("\n".join(lines))

    gauges = snapshot.get("gauges", {})
    if gauges:
        width = max(len(name) for name in gauges)
        lines = ["gauges:"]
        for name in sorted(gauges):
            lines.append(f"  {name.ljust(width)}  {gauges[name]:g}")
        sections.append("\n".join(lines))

    histograms = snapshot.get("histograms", {})
    if histograms:
        width = max(len(name) for name in histograms)
        lines = ["histograms:"]
        header = (
            f"  {'name'.ljust(width)}  {'count':>8}  {'mean':>10}  "
            f"{'p50':>10}  {'p99':>10}  {'p999':>10}  {'max':>10}"
        )
        lines.append(header)
        for name in sorted(histograms):
            h = histograms[name]
            if not h.get("count"):
                lines.append(f"  {name.ljust(width)}  {0:>8}")
                continue
            lines.append(
                f"  {name.ljust(width)}  {h['count']:>8}  "
                f"{_format_seconds(h['mean']):>10}  "
                f"{_format_seconds(h['p50']):>10}  "
                f"{_format_seconds(h['p99']):>10}  "
                f"{_format_seconds(h['p999']):>10}  "
                f"{_format_seconds(h['max']):>10}"
            )
        sections.append("\n".join(lines))

    if not sections:
        return "(no instruments recorded)\n"
    return "\n\n".join(sections) + "\n"
