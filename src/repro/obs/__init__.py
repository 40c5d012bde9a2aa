"""repro.obs — unified metrics registry, latency histograms, trace spans.

One process-local observability layer shared by the engine, index, cache,
and storage subsystems:

* **Instruments** (:mod:`repro.obs.instruments`) — monotonic
  :class:`Counter`, :class:`Gauge`, and streaming-quantile
  :class:`Histogram` (p50/p99/p999 from bucket counts, never raw
  samples).
* **Registry** (:mod:`repro.obs.registry`) — named instruments behind
  module-level handles (:func:`counter` / :func:`gauge` /
  :func:`timer`).  The default is a no-op registry; :func:`enable`
  activates collection for every handle in the process and
  :func:`disable` reverts it.
* **Spans** (:mod:`repro.obs.spans`) — a nestable ``span("name")``
  tracer with parent/child structure and attributes.
* **Export** (:mod:`repro.obs.export`) — snapshot dict, Prometheus text,
  Chrome ``trace_event`` JSON, and pretty text for the CLI.

Typical use::

    from repro import obs

    registry = obs.enable(tracing=True)
    ...  # run instrumented work
    print(obs.format_snapshot(registry.snapshot()))
    json.dump(obs.to_chrome_trace(obs.active_tracer()), fh)
    obs.disable()
"""

from repro.obs.export import (
    format_snapshot,
    to_chrome_trace,
    to_prometheus,
)
from repro.obs.instruments import (
    Counter,
    Gauge,
    Histogram,
    default_latency_boundaries,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    CounterHandle,
    GaugeHandle,
    HistogramHandle,
    MetricsRegistry,
    NullRegistry,
    TimerHandle,
    active_registry,
    active_tracer,
    counter,
    disable,
    enable,
    gauge,
    histogram,
    timed,
    timer,
)
from repro.obs.spans import NULL_TRACER, SpanRecord, Tracer

__all__ = [
    "Counter",
    "CounterHandle",
    "Gauge",
    "GaugeHandle",
    "Histogram",
    "HistogramHandle",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "SpanRecord",
    "TimerHandle",
    "Tracer",
    "active_registry",
    "active_tracer",
    "counter",
    "default_latency_boundaries",
    "disable",
    "enable",
    "format_snapshot",
    "gauge",
    "histogram",
    "timed",
    "timer",
    "to_chrome_trace",
    "to_prometheus",
]
