"""Typed metric instruments: counters, gauges, and quantile histograms.

Three instrument kinds cover everything the engine, index, and storage
layers report:

* :class:`Counter` — a monotonically increasing integer (appended rows,
  cache hits, fsyncs).
* :class:`Gauge` — a floating-point value that moves both ways (entries in
  a cache, bytes in the log).
* :class:`Histogram` — a bucketed distribution of observations (latencies)
  with streaming p50/p99/p999 estimation: only per-bucket counts are kept,
  never the raw samples, so memory is O(buckets) no matter how many
  observations are recorded.

Latency histograms use geometric bucket boundaries by default
(:func:`default_latency_boundaries`): each bucket's upper edge is the
previous edge times a constant growth factor, so the quantile estimate —
the geometric midpoint of the bucket holding the quantile's rank — is
within a documented *relative* error of the true sample quantile
(:attr:`Histogram.relative_error`, the growth factor minus one) for any
value inside the covered range.  Two histograms over the same boundaries
merge by adding bucket counts, which makes merging exact, commutative,
and associative, so per-worker histograms aggregate into fleet
percentiles without pooling samples.

All instruments are plain Python objects mutated under the GIL; increments
and records are safe from multiple threads (they may interleave, never
corrupt).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence

from repro.exceptions import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "default_latency_boundaries",
]

#: Growth factor of the default geometric latency buckets: 20 buckets per
#: decade, i.e. a documented relative quantile error of ~12.2%.
_DEFAULT_GROWTH = 10.0 ** (1.0 / 20.0)

#: Default latency range: 100 ns .. 100 s (9 decades, 181 bucket edges).
_DEFAULT_LOW = 1e-7
_DEFAULT_HIGH = 100.0


def default_latency_boundaries() -> tuple[float, ...]:
    """Geometric bucket upper edges covering 100 ns .. 100 s of latency.

    Edges grow by :data:`_DEFAULT_GROWTH` per bucket (20 per decade).  The
    shared tuple is computed once; histograms built from it merge with each
    other.
    """
    return _DEFAULT_BOUNDARIES


def _geometric_boundaries(low: float, high: float, growth: float) -> tuple[float, ...]:
    edges = [low]
    while edges[-1] < high:
        edges.append(edges[-1] * growth)
    return tuple(edges)


_DEFAULT_BOUNDARIES = _geometric_boundaries(
    _DEFAULT_LOW, _DEFAULT_HIGH, _DEFAULT_GROWTH
)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "description", "value")

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (which must be non-negative) to the counter."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def snapshot(self) -> int:
        """The current value (counters snapshot to a bare integer)."""
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "description", "value")

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def add(self, amount: float) -> None:
        """Shift the gauge by ``amount`` (either sign)."""
        self.value += amount

    def reset(self) -> None:
        """Zero the gauge."""
        self.value = 0.0

    def snapshot(self) -> float:
        """The current value (gauges snapshot to a bare float)."""
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """A bucketed distribution with streaming quantile estimation.

    Parameters
    ----------
    name:
        Instrument name (dotted, e.g. ``"engine.append_rows"``).
    boundaries:
        Strictly increasing bucket *upper edges*.  ``None`` (the default)
        uses :func:`default_latency_boundaries`, which marks the histogram
        *geometric*: quantile estimates are geometric bucket midpoints and
        :attr:`relative_error` documents their worst-case relative error.
        Explicit boundaries give a fixed-boundary histogram whose quantile
        estimates are arithmetic bucket midpoints (no relative-error bound
        is promised — absolute error is bounded by the bucket width).
    description:
        Free-form description carried into exports.

    Observations above the last edge land in an unbounded overflow bucket
    whose quantile estimate is clamped to the observed maximum; exact
    ``count``, ``sum``, ``min``, and ``max`` are tracked alongside the
    buckets, so means and extremes are never approximations.
    """

    __slots__ = (
        "name",
        "description",
        "_bounds",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_geometric",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        boundaries: Sequence[float] | None = None,
        description: str = "",
    ) -> None:
        self.name = name
        self.description = description
        if boundaries is None:
            bounds = _DEFAULT_BOUNDARIES
            geometric = True
        else:
            bounds = tuple(float(b) for b in boundaries)
            if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
                raise ObservabilityError(
                    f"histogram {name!r} boundaries must be non-empty and "
                    f"strictly increasing, got {bounds!r}"
                )
            geometric = False
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._geometric = geometric

    # ------------------------------------------------------------------ recording
    def record(self, value: float) -> None:
        """Record one observation (latencies are seconds as floats)."""
        self._counts[bisect_left(self._bounds, value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    # ------------------------------------------------------------------ properties
    @property
    def boundaries(self) -> tuple[float, ...]:
        """The bucket upper edges this histogram was built with."""
        return self._bounds

    @property
    def count(self) -> int:
        """How many observations were recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Exact sum of all recorded observations."""
        return self._sum

    @property
    def min(self) -> float:
        """Exact minimum observation (``nan`` when empty)."""
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        """Exact maximum observation (``nan`` when empty)."""
        return self._max if self._count else math.nan

    @property
    def mean(self) -> float:
        """Exact mean observation (``nan`` when empty)."""
        return self._sum / self._count if self._count else math.nan

    @property
    def relative_error(self) -> float | None:
        """Documented worst-case relative quantile error (geometric only).

        For geometric boundaries with growth factor ``g`` the estimate for
        any quantile whose rank falls inside the covered range is within a
        factor ``sqrt(g)`` of some sample in the same bucket, i.e. a
        relative error of at most ``g - 1`` (with slack).  ``None`` for
        fixed-boundary histograms.
        """
        if not self._geometric:
            return None
        return _DEFAULT_GROWTH - 1.0

    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket observation counts (last entry is the overflow bucket)."""
        return tuple(self._counts)

    # ------------------------------------------------------------------ quantiles
    def quantile(self, q: float) -> float:
        """Streaming estimate of the ``q``-quantile (``0 <= q <= 1``).

        Finds the bucket holding the ``ceil(q * count)``-th smallest
        observation and returns its midpoint (geometric for latency
        histograms, arithmetic for fixed boundaries), clamped to the exact
        observed ``[min, max]``.  ``nan`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile {q} outside [0, 1]")
        if self._count == 0:
            return math.nan
        rank = min(self._count, max(1, math.ceil(q * self._count)))
        cumulative = 0
        bucket = len(self._counts) - 1
        for i, n in enumerate(self._counts):
            cumulative += n
            if cumulative >= rank:
                bucket = i
                break
        if bucket == 0:
            low = self._min
            high = self._bounds[0]
        elif bucket == len(self._bounds):
            low = self._bounds[-1]
            high = self._max
        else:
            low = self._bounds[bucket - 1]
            high = self._bounds[bucket]
        if self._geometric and low > 0.0 and high > 0.0:
            estimate = math.sqrt(low * high)
        else:
            estimate = 0.5 * (low + high)
        return min(self._max, max(self._min, estimate))

    def percentiles(self) -> dict[str, float]:
        """The serving-tier trio: p50 / p99 / p999."""
        return {
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    # ------------------------------------------------------------------ merging
    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram holding both inputs' observations.

        Bucket counts add exactly, so merging is commutative and
        associative: quantiles of ``a.merge(b).merge(c)`` equal those of
        ``a.merge(b.merge(c))`` bit for bit.  Both histograms must share
        the same boundaries.
        """
        if self._bounds != other._bounds:
            raise ObservabilityError(
                f"cannot merge histograms {self.name!r} and {other.name!r}: "
                "bucket boundaries differ"
            )
        merged = Histogram.__new__(Histogram)
        merged.name = self.name
        merged.description = self.description
        merged._bounds = self._bounds
        merged._counts = [a + b for a, b in zip(self._counts, other._counts)]
        merged._count = self._count + other._count
        merged._sum = self._sum + other._sum
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        merged._geometric = self._geometric and other._geometric
        return merged

    # ------------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Drop every observation (boundaries are kept)."""
        self._counts = [0] * len(self._counts)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def snapshot(self) -> dict[str, float]:
        """Summary dict: count, sum, mean, min, max, and p50/p99/p999."""
        if self._count == 0:
            return {"count": 0}
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            **self.percentiles(),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self._count})"
