"""Arithmetic of the benchmark: percentiles, staleness, self time, attribution.

Pure functions over plain numbers and span tuples, so the unit tests in
``tests/`` exercise them without a server.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to be reported."""


def rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``count``."""
    return max(1, math.ceil(q / 100.0 * count))


def samples_needed(q: float) -> int:
    """Smallest sample count with :data:`MIN_BEYOND` samples beyond ``q``."""
    count = MIN_BEYOND
    while count - rank(count, q) < MIN_BEYOND:
        count += 1
    return count


def percentile(values, q: float, *, strict: bool = True) -> float:
    """Nearest-rank percentile.

    With ``strict`` the percentile must have :data:`MIN_BEYOND` samples
    above its rank, else :class:`InsufficientSamples` is raised.  Without
    it, an empty input gives 0.0 (used for per-layer timings, which report
    their count beside the percentile).
    """
    ordered = sorted(values)
    if not ordered:
        if strict:
            raise InsufficientSamples(f"p{q:g} of no samples")
        return 0.0
    r = rank(len(ordered), q)
    if strict and len(ordered) - r < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {len(ordered)} samples has {len(ordered) - r} beyond it; "
            f"{samples_needed(q)} samples are needed"
        )
    return ordered[r - 1]


# ---------------------------------------------------------------- staleness
@dataclass(frozen=True)
class Ack:
    """An acknowledged append: when the client saw it, and how many rows."""

    time: float
    rows: int


@dataclass(frozen=True)
class Answer:
    """A read answer: when the client received it, and its ``num_rows``."""

    time: float
    num_rows: int


def staleness(base_rows: int, acks: list[Ack], answers: list[Answer]) -> list[float]:
    """Staleness of each read answer of one tenant, in seconds.

    An answer's staleness is the time since the earliest acknowledged row
    that its ``num_rows`` does not include, counting the appends
    acknowledged before the answer arrived, in acknowledgement order on
    top of ``base_rows``; 0 when the answer includes them all.
    """
    ordered = sorted(acks, key=lambda a: a.time)
    result = []
    for answer in answers:
        acked, stale = base_rows, 0.0
        for ack in ordered:
            if ack.time > answer.time:
                break
            acked += ack.rows
            if acked > answer.num_rows:
                stale = answer.time - ack.time
                break
        result.append(stale)
    return result


# ---------------------------------------------------------------- spans
@dataclass
class Span:
    id: int
    parent: int | None
    request: str | None
    thread: int
    name: str
    start: float
    end: float
    args: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def pair_appends(spans: list[Span]) -> None:
    """Attach each writer-thread ``storage.append`` to its ``service.append``.

    The writer applies a tenant's batches first in, first out, so the k-th
    ``service.append`` of a tenant (by start time) waited for the k-th
    ``storage.append`` of that tenant.  The storage span becomes the
    service span's child, in the service span's request.
    """
    services: dict[str, deque[Span]] = defaultdict(deque)
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "service.append":
            services[span.args.get("tenant")].append(span)
        elif span.name == "storage.append" and span.parent is None:
            queue = services.get(span.args.get("tenant"))
            if queue:
                owner = queue.popleft()
                span.parent, span.request = owner.id, owner.request


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus that of its direct children."""
    result = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in result:
            result[span.parent] -= span.duration
    return result


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return {"http": "serve.http", "service": "serve.service"}.get(prefix, prefix)


def attribution(
    latencies: dict[str, float], spans: list[Span]
) -> tuple[dict[str, float], float]:
    """Split the mean client latency of a set of requests over layers.

    ``latencies`` maps request id to client-observed latency (seconds).
    Returns ``(mean self time per layer, unattributed share)``, where the
    unattributed part is the mean latency minus the summed layer self
    times: time no server span covers (the network, the client's wait
    for a connection).
    """
    if not latencies:
        return {}, 0.0
    own = self_times(spans)
    per_layer: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.request in latencies:
            per_layer[layer_of(span.name)] += own[span.id]
    count = len(latencies)
    mean_latency = sum(latencies.values()) / count
    means = {layer: total / count for layer, total in per_layer.items()}
    unattributed = mean_latency - sum(means.values())
    return means, unattributed / mean_latency
