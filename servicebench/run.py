"""Service benchmark: open-loop HTTP workloads against a separate server.

Usage (from the repository root)::

    python3 servicebench/run.py --workload query-mix --seed 1 --seconds 30 --trace 0
    python3 servicebench/run.py --workload all --seed 1

One run of one workload:

1. **Set-up**, ``Workload.repeats`` times: launch ``server.py`` in a child
   process on a fresh durable root, create and seed every tenant, wait
   until each answers.  ``setup_s`` is the median; the last server
   carries the load.
2. **Load**: a warm-up second, then ``--seconds`` of open-loop arrivals
   (Poisson or paced) at the workload's rate, then the capacity ladder.
3. **Recovery**, as often: SIGKILL the server, relaunch it on a copy of
   its root and time until every tenant answers (``recovery_s``, median).
4. **Check**: every acknowledged row is visible and a fixed probe set is
   answered ``==`` an in-process engine fed the same rows.

``--trace 1`` instead runs the measured phase twice, on an untraced and
on a traced server, and reports the per-layer metrics (``analysis.py``
holds the arithmetic, ``tracing.py`` the spans).  The last line of
standard output is one JSON object; the human-readable report goes to
standard error.  A run that fails its check, or whose generator ran late,
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import analysis
import check
from client import Connection, OpenLoopClient, Outcome, clock
from workloads import (
    MODEL_OPS,
    POINT_OPS,
    WORKLOADS,
    Workload,
    schedule,
    seed_rows,
)

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
#: Durable roots and traces live here, under the directory run from.
WORK_DIR = Path(".servicebench")

HOST = "127.0.0.1"
CONNECTIONS = 64
WARMUP_S = 1.0
RUNG_S = 3.0
#: A phase with more generator-late dispatches than this share (or than
#: :data:`GENERATOR_LATE_GRACE`, whichever is larger) is invalid.
MAX_GENERATOR_LATE = 0.02
GENERATOR_LATE_GRACE = 5
START_TIMEOUT_S = 120.0

END_TO_END = {
    "point_read_p50_ms": "ms",
    "point_read_p90_ms": "ms",
    "model_read_p50_ms": "ms",
    "model_read_p90_ms": "ms",
    "append_p50_ms": "ms",
    "append_p90_ms": "ms",
    "capacity_rps": "req/s",
    "setup_s": "s",
    "server_rss_mb": "MB",
    "disk_bytes_per_row": "bytes",
}


class InvalidRun(RuntimeError):
    """The run cannot be scored (generator late, check failed, ...)."""


# ---------------------------------------------------------------- server
class Server:
    """One ``server.py`` child; killed with SIGKILL, always waited for."""

    def __init__(self, w: Workload, root: Path, trace_out: Path | None = None):
        command = [
            sys.executable, str(BENCH_DIR / "server.py"), "--root", str(root),
            "--config", w.config,
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.launched = clock()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.kill()
            raise RuntimeError(f"server did not start (said {line!r})")
        self.port = int(line.split()[1])

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def wait_answering(ctl: Connection, w: Workload, expected: dict[str, int]) -> None:
    """Poll each tenant until a read answers at ``expected`` rows."""
    first, second = w.attributes[:2]
    deadline = clock() + START_TIMEOUT_S
    for tenant, rows in expected.items():
        while True:
            status, body = ctl.call(
                "POST", f"/v1/tenants/{tenant}/query/similarity",
                {"first": first, "second": second},
            )
            if status == 200 and body["num_rows"] == rows:
                break
            if clock() > deadline:
                raise RuntimeError(f"{tenant} never answered at {rows} rows")
            time.sleep(0.005)


def set_up(w: Workload, root: Path, trace_out: Path | None = None):
    """Launch a server on ``root``, create + seed every tenant; time it."""
    rows = seed_rows(w)
    server = Server(w, root, trace_out)
    try:
        ctl = Connection(HOST, server.port)
        for tenant, tenant_rows in rows.items():
            status, body = ctl.call("POST", "/v1/tenants", {
                "dataset_id": tenant, "attributes": w.attributes, "values": w.values,
            })
            if status != 201:
                raise RuntimeError(f"create {tenant}: HTTP {status} {body}")
            status, body = ctl.call(
                "POST", f"/v1/tenants/{tenant}/append", {"rows": tenant_rows}
            )
            if status != 200:
                raise RuntimeError(f"seed {tenant}: HTTP {status} {body}")
        wait_answering(ctl, w, {tenant: w.seed_rows for tenant in rows})
        elapsed = clock() - server.launched
        ctl.close()
    except BaseException:
        server.kill()
        raise
    return elapsed, server, {tenant: [r] for tenant, r in rows.items()}


# ---------------------------------------------------------------- load
class Ledger:
    """Acknowledged append batches per tenant, in acknowledgement order."""

    def __init__(self, batches: dict[str, list]) -> None:
        self.batches = batches

    def record(self, outcomes: list[Outcome]) -> None:
        acked = [o for o in outcomes if o.ok and o.request.op == "append"]
        for o in sorted(acked, key=lambda o: o.done):
            self.batches[o.request.tenant].append(o.request.rows)

    def rows(self, tenant: str) -> int:
        return sum(len(batch) for batch in self.batches[tenant])

    def total_rows(self) -> int:
        return sum(self.rows(tenant) for tenant in self.batches)


def drive(client: OpenLoopClient, requests, ledger: Ledger):
    """Run one open-loop phase; returns ``(outcomes, start)``."""
    start = clock() + 0.02
    outcomes = client.run(requests, start)
    ledger.record(outcomes)
    late = sum(o.generator_late for o in outcomes)
    if late > max(GENERATOR_LATE_GRACE, MAX_GENERATOR_LATE * len(outcomes)):
        raise InvalidRun(
            f"generator ran late on {late} of {len(outcomes)} dispatches "
            "while a connection was idle"
        )
    return outcomes, start


def latencies(outcomes: list[Outcome], ops) -> list[float]:
    """Latency (ms) of the ops' requests; a failed request never meets a limit."""
    return [
        o.latency_ms if o.ok else float("inf")
        for o in outcomes
        if o.request.op in ops
    ]


def staleness_ms(outcomes: list[Outcome], base_rows: dict[str, int]) -> list[float]:
    """Per read answer: ms since the earliest acknowledged row it lacks."""
    acks, answers = defaultdict(list), defaultdict(list)
    for o in outcomes:
        if not o.ok:
            continue
        if o.request.op == "append":
            acks[o.request.tenant].append(analysis.Ack(o.done, len(o.request.rows)))
        else:
            answers[o.request.tenant].append(
                analysis.Answer(o.done, o.body["num_rows"])
            )
    stale = []
    for tenant, tenant_answers in answers.items():
        stale += analysis.staleness(base_rows[tenant], acks[tenant], tenant_answers)
    return [value * 1e3 for value in stale]


def offered_rps(outcomes: list[Outcome]) -> float:
    """The realized offered rate of a phase: dispatches over their span."""
    first, last = outcomes[0].sent, outcomes[-1].sent
    return (len(outcomes) - 1) / (last - first)


def meets_limits(w: Workload, outcomes: list[Outcome]) -> bool:
    """No failure, point-read p99 within the limit, and no backlog (a rung).

    The p99 is the nearest rank over the phase's point reads.  A backlog
    built when a request in the last tenth of the phase found every
    connection busy.
    """
    tail = outcomes[-max(1, len(outcomes) // 10):]
    p99 = analysis.percentile(latencies(outcomes, POINT_OPS), 99, strict=False)
    failed = sum(not o.ok for o in outcomes)
    backlog = any(o.waited_for_connection for o in tail)
    passed = not failed and p99 <= w.latency_limit_ms and not backlog
    print(
        f"  rung {offered_rps(outcomes):7.1f} req/s: point p99 {p99:.1f} ms, "
        f"{failed} failed, backlog {'yes' if backlog else 'no'} -> "
        f"{'pass' if passed else 'fail'}",
        file=sys.stderr,
    )
    return passed


def capacity(w: Workload, seed: int, client, ledger, main) -> float:
    """Climb the ladder; returns the capacity in requests per second.

    The capacity is the realized offered rate of the highest ladder rung
    that meets every limit, climbing until the first rung that does not.
    When no rung does, it is the measured phase's rate.
    """
    best = offered_rps(main)
    for step, rate in enumerate(w.ladder):
        outcomes, _ = drive(client, schedule(w, seed, f"rung{step}", rate, RUNG_S), ledger)
        if not meets_limits(w, outcomes):
            break
        best = offered_rps(outcomes)
    return best


def measured_phase(w, seed, seconds, port, ledger, on_start=None):
    """Warm up, then run the measured phase.

    Returns ``(outcomes, client, rows per tenant before the phase, start)``.
    """
    client = OpenLoopClient(HOST, port, CONNECTIONS)
    drive(client, schedule(w, seed, "warmup", w.rate, WARMUP_S), ledger)
    base_rows = {tenant: ledger.rows(tenant) for tenant in ledger.batches}
    if on_start is not None:
        on_start()
    outcomes, start = drive(client, schedule(w, seed, "main", w.rate, seconds), ledger)
    return outcomes, client, base_rows, start


# ---------------------------------------------------------------- recovery + check
def recover(w: Workload, root: Path, expected: dict[str, int]):
    """Relaunch on ``root``; returns ``(seconds until all answer, server)``."""
    server = Server(w, root)
    try:
        ctl = Connection(HOST, server.port)
        wait_answering(ctl, w, expected)
        elapsed = clock() - server.launched
        ctl.close()
    except BaseException:
        server.kill()
        raise
    return elapsed, server


def recover_and_check(w: Workload, root: Path, ledger: Ledger) -> float:
    """Median recovery time after SIGKILL, then the correctness check.

    Each recovery starts from its own copy of the killed server's root, so
    every attempt replays the same state (a reopen may checkpoint).  The
    copies are made and flushed to disk before the first attempt, so no
    attempt pays for writing back another's files.
    """
    expected = {tenant: ledger.rows(tenant) for tenant in ledger.batches}
    copies = [root.with_name(f"{root.name}-recovery-{i}") for i in range(w.repeats)]
    for copy in copies:
        shutil.copytree(root, copy)
    times = []
    for attempt, copy in enumerate(copies):
        os.sync()
        elapsed, server = recover(w, copy, expected)
        times.append(elapsed)
        if attempt < w.repeats - 1:
            server.kill()
    print(f"  recovery attempts: {', '.join(f'{t:.3f}' for t in times)} s",
          file=sys.stderr)
    try:
        client = OpenLoopClient(HOST, server.port, CONNECTIONS)
        try:
            probes = client.run(check.probe_schedule(w, list(expected)), clock())
        finally:
            client.close()
    finally:
        server.kill()
    served, problems = defaultdict(dict), []
    for o in probes:
        if o.ok:
            served[o.request.tenant][o.request.index] = o.body
        else:
            problems.append(
                f"{o.request.tenant}: probe {o.request.op} failed: {o.error or o.body}"
            )
    for tenant, rows in expected.items():
        reference = check.reference_answers(w, tenant, ledger.batches[tenant])
        problems += check.compare(w, tenant, rows, served[tenant], reference)
    if problems:
        raise InvalidRun("check failed: " + "; ".join(problems[:5]))
    return statistics.median(times)


def disk_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ---------------------------------------------------------------- runs
def run_untraced(w: Workload, seed: int, seconds: float, work: Path):
    setups = []
    for attempt in range(w.repeats):
        if setups:
            server.kill()
        root = work / f"setup-{attempt}"
        os.sync()
        elapsed, server, batches = set_up(w, root)
        setups.append(elapsed)
    print(f"  set-up attempts: {', '.join(f'{t:.3f}' for t in setups)} s",
          file=sys.stderr)
    ledger = Ledger(batches)
    try:
        main, client, base_rows, _ = measured_phase(
            w, seed, seconds, server.port, ledger
        )
        rss = server.peak_rss_mb()
        bytes_per_row = disk_bytes(root) / ledger.total_rows()
        try:
            capacity_rps = capacity(w, seed, client, ledger, main)
        finally:
            client.close()
    finally:
        server.kill()
    recovery = recover_and_check(w, root, ledger)

    point, model = latencies(main, POINT_OPS), latencies(main, MODEL_OPS)
    appends = latencies(main, ("append",))
    stale = staleness_ms(main, base_rows)
    values = {
        "point_read_p50_ms": analysis.percentile(point, 50),
        "point_read_p90_ms": analysis.percentile(point, 90),
        "model_read_p50_ms": analysis.percentile(model, 50),
        "model_read_p90_ms": analysis.percentile(model, 90),
        "append_p50_ms": analysis.percentile(appends, 50),
        "append_p90_ms": analysis.percentile(appends, 90),
        "capacity_rps": capacity_rps,
        "setup_s": statistics.median(setups),
        "server_rss_mb": rss,
        "disk_bytes_per_row": bytes_per_row,
    }
    if any(v == float("inf") for v in values.values()):
        raise InvalidRun("a reported percentile includes failed requests")
    samples = {"point": len(point), "model": len(model), "append": len(appends)}
    print(
        "  staleness per read answer (not bounded: 0 when fresh): "
        f"p50 {analysis.percentile(stale, 50, strict=False):.1f} ms, "
        f"p99 {analysis.percentile(stale, 99, strict=False):.1f} ms, "
        f"{sum(v > 0 for v in stale)} of {len(stale)} answers stale",
        file=sys.stderr,
    )
    print(f"  recovery_s (not bounded) {recovery:.3f} s", file=sys.stderr)
    return main, {k: (v, END_TO_END[k]) for k, v in values.items()}, samples


def run_traced(w: Workload, seed: int, seconds: float, work: Path):
    """Untraced then traced measured phase; per-layer metrics from the trace."""
    import layers

    _, server, batches = set_up(w, work / "untraced")
    try:
        untraced, client, _, _ = measured_phase(
            w, seed, seconds / 2, server.port, Ledger(batches)
        )
        client.close()
    finally:
        server.kill()

    trace_path = (WORK_DIR / "traces" / f"{w.name}-{seed}.json").resolve()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.unlink(missing_ok=True)
    root = work / "traced"
    _, server, batches = set_up(w, root, trace_out=trace_path)
    ledger = Ledger(batches)
    try:
        ctl = Connection(HOST, server.port)
        stats_before = ctl.call("GET", "/stats")[1]

        def mark():
            server.proc.send_signal(signal.SIGUSR1)
            time.sleep(0.1)

        traced, client, _, start = measured_phase(
            w, seed, seconds, server.port, ledger, on_start=mark
        )
        client.close()
        stats_after = ctl.call("GET", "/stats")[1]
        ctl.close()
        server.proc.send_signal(signal.SIGUSR2)
        deadline = clock() + 60
        while not trace_path.exists():
            if clock() > deadline:
                raise RuntimeError("the traced server never wrote its trace")
            time.sleep(0.05)
    finally:
        server.kill()
    recover_and_check(w, root, ledger)

    trace = json.loads(trace_path.read_text())
    metrics, report = layers.per_layer(
        trace, traced, untraced, start,
        evictions=stats_after["evictions"] - stats_before["evictions"],
    )
    layers.add_client_spans(trace, traced)
    trace_path.write_text(json.dumps(trace))
    print(report, file=sys.stderr)
    print(f"  trace written to {trace_path}", file=sys.stderr)
    return traced, metrics


def run_one(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = (WORK_DIR / f"{w.name}-{seed}-{os.getpid()}").resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            outcomes, metrics = run_traced(w, seed, seconds, work)
        else:
            outcomes, metrics, samples = run_untraced(w, seed, seconds, work)
            print(f"  samples: {samples}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not o.ok for o in outcomes)
    print(f"  error_share {failed / len(outcomes):.6f} ratio "
          f"({failed} of {len(outcomes)})", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}", file=sys.stderr)
    return {
        "correct": True,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC_DIR))
    try:
        import repro  # noqa: F401  (fail before printing any result)
    except ImportError as error:
        print(f"servicebench: cannot import the program: {error}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        print(f"{name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})",
              file=sys.stderr)
        try:
            results[name] = run_one(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace))
        except (InvalidRun, analysis.InsufficientSamples) as error:
            print(f"  INVALID: {error}", file=sys.stderr)
            results[name] = {"correct": False, "attempted": 1, "failed": 0,
                             "metrics": {}}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
