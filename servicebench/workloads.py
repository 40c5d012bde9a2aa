"""Workload definitions: tenants, seed rows, request mixes and schedules.

Everything a run sends is generated here.  Each tenant's seed rows come
from a fixed dataset seed, so every run serves the same models; ``--seed``
draws the traffic: the arrival schedule of every phase, every request body
and every appended row.  The server receives only these generated rows and
requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: Request classes.  Point reads are cheap per-attribute lookups, model
#: reads are graph-global computations, appends add rows.
POINT_OPS = ("similarity", "neighbors", "classify")
MODEL_OPS = ("clusters", "dominators")
READ_OPS = POINT_OPS + MODEL_OPS


def op_class(op: str) -> str:
    if op in POINT_OPS:
        return "point"
    if op in MODEL_OPS:
        return "model"
    return "append"


#: Model-read parameters come from this small set.  A snapshot serves few
#: model reads before the next publish replaces it, so most of them are
#: first computations (cache misses) and some are repeats (hits).
MODEL_PARAMS = {
    "clusters": ({"t": 2}, {"t": 3}, {"t": 4}, {"t": 5}),
    "dominators": ({"algorithm": "set-cover"}, {"algorithm": "greedy"}),
}

#: The seed of every tenant's seed rows (the datasets do not vary by run).
DATASET_SEED = 0


#: Every attribute group has this many members; every attribute this many
#: values.
GROUP_SIZE = 3
NUM_VALUES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    tenants: int
    #: Planted attribute groups (``GROUP_SIZE`` attributes each).
    groups: int
    seed_rows: int
    #: ``"pairwise"`` is the self-serve shape (hyperedges off);
    #: ``"c1"`` is the engine default (hyperedges on).
    config: str
    #: Offered rate of the measured phase, requests per second.
    rate: float
    #: Share of requests per operation; the shares sum to 1.
    mix: dict[str, float]
    append_batch: int
    #: Point-read p99 limit a capacity-ladder rung must meet, in ms.
    latency_limit_ms: float
    #: Offered rates of the capacity ladder, ascending, requests per second.
    ladder: tuple[float, ...]
    #: ``"poisson"``: a Poisson process; ``"paced"``: evenly spaced arrivals.
    arrivals: str = "poisson"
    #: Set-ups (and recoveries) per run; ``setup_s`` and the recovery time
    #: are their medians.  A one-tenant set-up is mostly interpreter start-up,
    #: whose time varies by up to a third from one launch to the next.
    repeats: int = 5

    @property
    def attributes(self) -> list[str]:
        return [
            f"G{g}M{m}" for g in range(self.groups) for m in range(GROUP_SIZE)
        ]

    @property
    def values(self) -> list[int]:
        return list(range(NUM_VALUES))

    def tenant_ids(self) -> list[str]:
        return [f"{self.name}-{i:02d}" for i in range(self.tenants)]


def _point_mix(point: float, model: float, append: float) -> dict[str, float]:
    mix = {op: point / len(POINT_OPS) for op in POINT_OPS}
    mix.update({op: model / len(MODEL_OPS) for op in MODEL_OPS})
    mix["append"] = append
    return mix


#: README.md records why each workload exists and what it should (and
#: should not) show.  BENCHMARK.json scores ``query-mix`` and
#: ``tenant-churn``; ``stream-ingest`` is run by hand.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="query-mix",
            tenants=1,
            groups=4,
            seed_rows=2000,
            config="pairwise",
            rate=70.0,
            mix=_point_mix(0.8, 0.1, 0.1),
            append_batch=4,
            latency_limit_ms=150.0,
            ladder=(700.0, 1400.0),
            repeats=9,
        ),
        Workload(
            name="stream-ingest",
            tenants=1,
            groups=8,
            seed_rows=250,
            config="c1",
            rate=24.0,
            mix=_point_mix(0.5, 0.22, 0.28),
            append_batch=1,
            latency_limit_ms=2500.0,
            ladder=(36.0, 48.0),
        ),
        Workload(
            name="tenant-churn",
            tenants=16,
            groups=4,
            seed_rows=250,
            config="pairwise",
            rate=20.0,
            mix=_point_mix(0.5, 0.3, 0.2),
            append_batch=4,
            latency_limit_ms=800.0,
            ladder=(30.0,),
            arrivals="paced",
        ),
    )
}


# ---------------------------------------------------------------- generators
def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible stream per (seed, purpose)."""
    return random.Random(f"{seed}:{purpose}")


def planted_rows(w: Workload, count: int, rng: random.Random) -> list[list[int]]:
    """Rows in which each group's members mostly share a per-row base value."""
    rows = []
    for _ in range(count):
        row = []
        for _group in range(w.groups):
            base = rng.randrange(NUM_VALUES)
            for _member in range(GROUP_SIZE):
                keep = rng.random() < 0.8
                row.append(base if keep else rng.randrange(NUM_VALUES))
        rows.append(row)
    return rows


def seed_rows(w: Workload) -> dict[str, list[list[int]]]:
    return {
        tenant: planted_rows(
            w, w.seed_rows, rng_for(DATASET_SEED, f"seed-rows:{tenant}")
        )
        for tenant in w.tenant_ids()
    }


@dataclass
class Request:
    """One scheduled request.  ``due`` is seconds from the phase start."""

    phase: str
    index: int
    due: float
    op: str
    tenant: str
    path: str
    body: bytes
    rows: list | None = None

    @property
    def id(self) -> str:
        return f"{self.phase}-{self.index}"

    @property
    def klass(self) -> str:
        return op_class(self.op)


def _payload(w: Workload, op: str, rng: random.Random) -> dict:
    attrs = w.attributes
    if op == "similarity":
        first, second = rng.sample(attrs, 2)
        return {"first": first, "second": second}
    if op == "neighbors":
        return {"attribute": rng.choice(attrs), "limit": 5}
    if op == "classify":
        evidence, target = rng.sample(attrs, 2)
        return {"evidence": {evidence: rng.choice(w.values)}, "targets": [target]}
    return dict(rng.choice(MODEL_PARAMS[op]))


def schedule(
    w: Workload, seed: int, phase: str, rate: float, seconds: float
) -> list[Request]:
    """Open-loop arrivals of one phase at ``rate``.

    The count is fixed at ``round(rate * seconds)``, so the offered rate of
    every phase is exact.  Poisson arrival times are sorted uniform draws
    (a Poisson process conditioned on its count); paced ones are evenly
    spaced, and the seed then draws only what each request asks.
    Operations follow the mix in exact proportion, in seeded random order.
    """
    rng = rng_for(seed, f"schedule:{phase}")
    count = max(1, round(rate * seconds))
    if w.arrivals == "paced":
        times = [(i + 0.5) * seconds / count for i in range(count)]
    else:
        times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    ops: list[str] = []
    for op, share in w.mix.items():
        ops.extend([op] * round(share * count))
    while len(ops) < count:
        ops.append(max(w.mix, key=w.mix.get))
    del ops[count:]
    rng.shuffle(ops)
    tenants = w.tenant_ids()
    requests = []
    for index, (due, op) in enumerate(zip(times, ops)):
        tenant = rng.choice(tenants)
        if op == "append":
            rows = planted_rows(w, w.append_batch, rng)
            body, path = {"rows": rows}, f"/v1/tenants/{tenant}/append"
        else:
            rows = None
            body = _payload(w, op, rng)
            path = f"/v1/tenants/{tenant}/query/{op}"
        requests.append(
            Request(phase, index, due, op, tenant, path, json.dumps(body).encode(), rows)
        )
    return requests


def probe_requests(w: Workload) -> list[tuple[str, dict]]:
    """The fixed probe set the correctness check asks every tenant."""
    attrs = w.attributes
    probes: list[tuple[str, dict]] = []
    for i in range(0, len(attrs) - 1, max(1, len(attrs) // 6)):
        probes.append(("similarity", {"first": attrs[i], "second": attrs[i + 1]}))
        probes.append(("neighbors", {"attribute": attrs[i], "limit": 5}))
        probes.append(
            (
                "classify",
                {"evidence": {attrs[i]: i % NUM_VALUES}, "targets": [attrs[-1 - i]]},
            )
        )
    for op, choices in MODEL_PARAMS.items():
        probes.extend((op, dict(params)) for params in choices)
    return probes
