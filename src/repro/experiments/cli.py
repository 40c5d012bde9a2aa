"""Command-line entry point: ``repro-experiments <experiment>``.

Runs one (or all) of the paper's experiments on the default synthetic
workload and prints the resulting rows as plain-text tables.  The same
runners back the pytest-benchmark modules under ``benchmarks/``; the CLI is
the quick way to eyeball a single table.

Beyond the paper's tables and figures, the ``engine`` experiment replays
the workload's market panel day by day through the incremental
:class:`~repro.engine.AssociationEngine` and reports incremental-append
versus full-rebuild timings plus cold versus cached query serving (it is
not part of ``all`` because the rebuild baseline it times is deliberately
expensive).

With ``--durable DIR`` the ``engine`` experiment instead streams the
out-of-sample days through a :class:`~repro.storage.DurableEngine`
persisted under ``DIR`` (write-ahead log + delta checkpoints), and the
``compact`` subcommand folds an existing durability directory's log and
delta chain into a fresh base snapshot.

Observability: ``--metrics-out FILE`` runs any experiment or subcommand
with the :mod:`repro.obs` registry enabled and writes the final snapshot
as JSON;
``--trace-out FILE`` additionally records trace spans and writes a Chrome
``trace_event`` document (open in ``chrome://tracing`` / Perfetto).  The
``stats`` subcommand pretty-prints a registry snapshot — either a
previously written ``--metrics-out`` file (``--metrics-in``) or one
collected live from a fresh streaming replay.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro import obs
from repro.engine.replay import run_streaming_replay
from repro.experiments.figures import (
    run_figure_5_1,
    run_figure_5_2,
    run_figure_5_3,
    run_figure_5_4,
)
from repro.experiments.model_stats import run_model_stats
from repro.experiments.reporting import format_rows
from repro.experiments.tables import (
    run_table_5_1,
    run_table_5_2,
    run_table_5_3,
    run_table_5_4,
)
from repro.experiments.workloads import default_workload

__all__ = ["main"]

EXPERIMENTS = (
    "model-stats",
    "table-5.1",
    "table-5.2",
    "table-5.3",
    "table-5.4",
    "figure-5.1",
    "figure-5.2",
    "figure-5.3",
    "figure-5.4",
)

#: The streaming-engine replay; listed separately because ``all`` skips it.
ENGINE_EXPERIMENT = "engine"

#: Maintenance subcommand: compact a durability directory (``--durable``).
COMPACT_COMMAND = "compact"

#: Replication subcommand: tail a leader's durability directory read-only.
FOLLOW_COMMAND = "follow"

#: Observability subcommand: pretty-print a metrics-registry snapshot.
STATS_COMMAND = "stats"

#: Serving subcommand: host a multi-tenant query service over HTTP.
SERVE_COMMAND = "serve"


def durable_engine_options(sync_mode: str, fsync_interval_ms: float) -> dict:
    """Map the CLI's durability flags onto engine-factory keyword arguments.

    The one shared engine-factory helper: ``engine --durable``, ``follow``
    and ``serve`` all construct their :class:`~repro.storage.DurableEngine`
    (or :class:`~repro.serve.TenantManager`, which forwards them) through
    this mapping, so the fsync-policy plumbing lives in exactly one place.
    """
    if sync_mode == "none":
        return {}
    if sync_mode == "per-append":
        return {"sync": True}
    from repro.storage import GroupCommitWindow

    return {
        "sync": True,
        "group_commit": GroupCommitWindow(fsync_interval_ms=fsync_interval_ms),
    }


def _run_durable_replay(
    workload,
    directory: str,
    checkpoint_every: int = 16,
    sync_mode: str = "none",
    fsync_interval_ms: float = 5.0,
) -> str:
    """Stream the out-of-sample days through a durable engine under ``directory``."""
    from repro.engine.replay import ReplayRow

    config = workload.configs[0]
    durable = workload.durable_engine(
        config, directory, **durable_engine_options(sync_mode, fsync_interval_ms)
    )
    test_db = workload.database(config, "test")
    rows = test_db.to_rows()
    start_rows = durable.num_observations
    checkpoints = 0
    # Timer outermost so the close-time fsync stays inside the measured
    # interval, exactly as the old perf_counter pair had it.
    with obs.timed("cli.durable_stream", days=len(rows)) as stream_timer, durable:
        for day, row in enumerate(rows, start=1):
            durable.append_row(row)
            if day % checkpoint_every == 0:
                durable.checkpoint()
                checkpoints += 1
        final = durable.checkpoint()
        checkpoints += 0 if final.skipped else 1
    elapsed = stream_timer.elapsed
    manifest = durable.manifest
    report = [
        ReplayRow("config", config.name),
        ReplayRow("directory", str(directory)),
        ReplayRow("streamed_days", str(len(rows))),
        ReplayRow("rows_total", str(durable.num_observations)),
        ReplayRow("rows_at_open", str(start_rows)),
        ReplayRow("rows_replayed_from_wal", str(durable.counters.recovered_rows)),
        ReplayRow("checkpoints", str(checkpoints)),
        ReplayRow("delta_files", str(len(manifest.deltas))),
        ReplayRow("compactions", str(durable.counters.compactions)),
        ReplayRow("wal_bytes", str(durable.wal.total_bytes(since=manifest.base_wal))),
        ReplayRow("wal_fsyncs", str(durable.wal.syncs)),
        ReplayRow("sync_mode", sync_mode),
        ReplayRow("stream_seconds", f"{elapsed:.3f}s"),
        ReplayRow("final_edges", str(durable.engine.hypergraph.num_edges)),
    ]
    return format_rows(report)


def _run_stats(workload, metrics_in: str | None) -> str:
    """Pretty-print a metrics-registry snapshot.

    With ``metrics_in``, formats a snapshot JSON previously written by
    ``--metrics-out``.  Otherwise runs the streaming replay on
    ``workload`` into the active registry (the ``--metrics-out`` one, or
    a fresh registry of its own) and formats what it collected.
    """
    if metrics_in:
        snapshot = json.loads(Path(metrics_in).read_text())
        return obs.format_snapshot(snapshot)
    owned = not obs.active_registry().enabled
    registry = obs.enable() if owned else obs.active_registry()
    try:
        run_streaming_replay(workload.panel)
        return obs.format_snapshot(registry.snapshot())
    finally:
        if owned:
            obs.disable()


def _run_compact(directory: str) -> str:
    """Compact an existing durability directory and report what was folded."""
    from repro.engine.replay import ReplayRow
    from repro.storage import DurableEngine

    with DurableEngine.open(directory) as durable:
        report = durable.compact()
    rows = [
        ReplayRow("directory", str(directory)),
        ReplayRow("new_checkpoint_id", str(report.checkpoint_id)),
        ReplayRow("rows_folded", str(report.num_rows)),
        ReplayRow("wal_bytes_folded", str(report.wal_bytes_before)),
        ReplayRow("wal_segments_removed", str(report.segments_removed)),
        ReplayRow("delta_files_removed", str(report.deltas_removed)),
    ]
    return f"{report.summary()}\n\n{format_rows(rows)}"


def _run_follow(
    directory: str,
    *,
    follower_id: str | None,
    polls: int,
    poll_interval_ms: float,
) -> str:
    """Bootstrap a read-only follower over ``directory`` and tail it.

    Bounded by ``polls`` rounds so the command terminates with or without
    a live leader on the other side; each round applies every newly
    shipped complete frame, then waits up to the poll interval for the
    log to grow.  The final report shows what the follower restored,
    applied, and still trails by.
    """
    import time

    from repro.engine.replay import ReplayRow
    from repro.storage import ReplicaEngine

    interval = poll_interval_ms / 1000.0
    start = time.perf_counter()
    with ReplicaEngine.open(directory, follower_id=follower_id) as replica:
        t_bootstrap = time.perf_counter() - start
        for _ in range(max(0, polls)):
            replica.poll()
            replica.wait_for_growth(timeout=interval, poll_interval=interval / 4)
        counters = replica.counters
        lag = replica.lag()
        rows = [
            ReplayRow("leader_directory", str(directory)),
            ReplayRow("follower_id", replica.follower_id),
            ReplayRow("bootstrap_seconds", f"{t_bootstrap:.3f}s"),
            ReplayRow("rows_served", str(replica.engine.num_observations)),
            ReplayRow("bootstrap_tail_rows", str(counters["bootstrap_rows"])),
            ReplayRow("count_states_restored", str(counters["count_states_restored"])),
            ReplayRow("polls", str(counters["polls"])),
            ReplayRow("applied_batches", str(counters["applied_batches"])),
            ReplayRow("applied_rows", str(counters["applied_rows"])),
            ReplayRow("rebootstraps", str(counters["rebootstraps"])),
            ReplayRow(
                "position", f"{replica.position.segment}:{replica.position.offset}"
            ),
            ReplayRow("lag_rows", str(lag.rows)),
            ReplayRow("lag_bytes", str(lag.bytes)),
        ]
    return format_rows(rows)


def _run_serve(args) -> int:
    """Host a multi-tenant HTTP query service over ``--durable-root``.

    Each subdirectory of the root is one tenant's durability directory;
    metrics are always enabled (into the ``--metrics-out`` registry, if
    any) so ``/metrics`` exposes live counters.  Blocks until interrupted;
    shutdown checkpoints every resident tenant.
    """
    from repro.serve import TenantManager
    from repro.serve.http import run

    if not obs.active_registry().enabled:
        obs.enable()
    manager = TenantManager(
        args.durable_root,
        max_tenants=args.max_tenants,
        max_queue_depth=args.max_queue_depth,
        **durable_engine_options(args.durable_sync, args.fsync_interval_ms),
    )
    print(
        f"serving tenants under {manager.root} on "
        f"http://{args.host}:{args.port} ({args.workers} workers, "
        f"max {args.max_tenants} resident tenants)"
    )
    run(
        manager,
        host=args.host,
        port=args.port,
        workers=args.workers,
        verbose=args.serve_verbose,
    )
    return 0


def _run_one(
    name: str,
    workload,
    backend: str = "index",
    durable: str | None = None,
    sync_mode: str = "none",
    fsync_interval_ms: float = 5.0,
) -> str:
    if name == ENGINE_EXPERIMENT:
        if durable:
            return _run_durable_replay(
                workload,
                durable,
                sync_mode=sync_mode,
                fsync_interval_ms=fsync_interval_ms,
            )
        return format_rows(run_streaming_replay(workload.panel).rows())
    if name == "model-stats":
        return format_rows(run_model_stats(workload))
    if name == "table-5.1":
        return format_rows(run_table_5_1(workload))
    if name == "table-5.2":
        return format_rows(run_table_5_2(workload))
    if name == "table-5.3":
        return format_rows(run_table_5_3(workload, backend=backend))
    if name == "table-5.4":
        return format_rows(run_table_5_4(workload, backend=backend))
    if name == "figure-5.1":
        return format_rows(run_figure_5_1(workload))
    if name == "figure-5.2":
        return format_rows(run_figure_5_2(workload, backend=backend))
    if name == "figure-5.3":
        summary, clustering, _graph = run_figure_5_3(workload, backend=backend)
        lines = [format_rows([summary]), "", "cluster sizes:"]
        for center, members in sorted(
            clustering.clusters.items(), key=lambda kv: -len(kv[1])
        )[:15]:
            lines.append(f"  {center}: {len(members)}")
        return "\n".join(lines)
    if name == "figure-5.4":
        return format_rows(run_figure_5_4(workload, backend=backend))
    raise ValueError(f"unknown experiment {name!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, run the requested experiment(s), and print the tables."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Re-run the paper's evaluation tables and figures on a synthetic market."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS
        + (
            ENGINE_EXPERIMENT,
            COMPACT_COMMAND,
            FOLLOW_COMMAND,
            STATS_COMMAND,
            SERVE_COMMAND,
            "all",
        ),
        help=(
            "which table/figure to regenerate ('engine' runs the streaming "
            "replay; 'compact' folds a --durable directory; 'follow' tails "
            "one as a read-only replica; 'stats' pretty-prints a metrics "
            "snapshot; 'serve' hosts a multi-tenant HTTP query service over "
            "--durable-root)"
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=0.5, help="market size multiplier"
    )
    parser.add_argument("--days", type=int, default=420, help="number of price days")
    parser.add_argument("--seed", type=int, default=11, help="market generator seed")
    parser.add_argument(
        "--backend",
        choices=("index", "reference"),
        default="index",
        help=(
            "query substrate for similarity/dominator/classifier runners: the "
            "compiled array index (default) or the dict-based reference "
            "implementation — results are identical, only speed differs"
        ),
    )
    parser.add_argument(
        "--index-snapshot",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "persist compiled sharded indexes as .npz snapshots under DIR "
            "and reload them on later runs (cold starts skip the index "
            "compile; a snapshot whose stamp does not match the workload "
            "is refused)"
        ),
    )
    parser.add_argument(
        "--durable",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "durability directory: 'engine' streams the out-of-sample days "
            "through a DurableEngine persisted here (write-ahead log + delta "
            "checkpoints), and 'compact' folds the directory's log and delta "
            "chain into a fresh base"
        ),
    )
    parser.add_argument(
        "--durable-sync",
        choices=("none", "per-append", "group"),
        default="none",
        help=(
            "fsync policy of the --durable write-ahead log: 'none' fsyncs "
            "only at checkpoints, 'per-append' fsyncs every append, 'group' "
            "batches sync=True fsyncs under a group-commit window "
            "(--fsync-interval-ms) for near-'none' throughput with "
            "power-loss durability at the window boundary"
        ),
    )
    parser.add_argument(
        "--fsync-interval-ms",
        type=float,
        default=5.0,
        help="group-commit window width in milliseconds (with --durable-sync group)",
    )
    parser.add_argument(
        "--follower-id",
        type=str,
        default=None,
        metavar="NAME",
        help=(
            "for 'follow': a stable lease name under <DIR>/replicas/ "
            "(reusing one across restarts keeps catch-up O(delta)); "
            "default is a fresh unique id"
        ),
    )
    parser.add_argument(
        "--follow-polls",
        type=int,
        default=10,
        metavar="N",
        help="for 'follow': tail the log for N poll rounds before reporting",
    )
    parser.add_argument(
        "--follow-interval-ms",
        type=float,
        default=20.0,
        metavar="MS",
        help="for 'follow': how long each round waits for the log to grow",
    )
    parser.add_argument(
        "--durable-root",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "for 'serve': the tenant root — each subdirectory is one "
            "dataset's durability directory (created on demand)"
        ),
    )
    parser.add_argument(
        "--host",
        type=str,
        default="127.0.0.1",
        help="for 'serve': interface to bind",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8722,
        help="for 'serve': TCP port to bind",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=8,
        metavar="N",
        help="for 'serve': size of the bounded HTTP handler thread pool",
    )
    parser.add_argument(
        "--max-tenants",
        type=int,
        default=8,
        metavar="N",
        help=(
            "for 'serve': resident-tenant limit; the least recently used "
            "tenant is checkpointed to its durable directory and evicted "
            "when a new one would exceed it"
        ),
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help=(
            "for 'serve': per-tenant append-queue depth before admission "
            "control sheds new appends with HTTP 503 (default: unbounded)"
        ),
    )
    parser.add_argument(
        "--serve-verbose",
        action="store_true",
        help="for 'serve': log one line per HTTP request to stderr",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="also write the rendered tables to this file",
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "run with the repro.obs metrics registry enabled and write its "
            "final snapshot to FILE as JSON (pretty-print later with 'stats "
            "--metrics-in FILE')"
        ),
    )
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "additionally record trace spans and write a Chrome trace_event "
            "JSON document to FILE (open in chrome://tracing or Perfetto)"
        ),
    )
    parser.add_argument(
        "--metrics-in",
        type=str,
        default=None,
        metavar="FILE",
        help="for 'stats': pretty-print this previously written snapshot JSON",
    )
    args = parser.parse_args(argv)
    if args.experiment == SERVE_COMMAND and not args.durable_root:
        parser.error("'serve' requires --durable-root DIR")
    if args.experiment in (COMPACT_COMMAND, FOLLOW_COMMAND) and not args.durable:
        parser.error(f"'{args.experiment}' requires --durable DIR")

    registry = None
    if args.metrics_out or args.trace_out:
        registry = obs.enable(tracing=args.trace_out is not None)
    try:
        return _run_command(args)
    finally:
        if registry is not None:
            if args.metrics_out:
                Path(args.metrics_out).write_text(
                    json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n"
                )
            if args.trace_out:
                Path(args.trace_out).write_text(
                    json.dumps(obs.to_chrome_trace(obs.active_tracer())) + "\n"
                )
            obs.disable()


def _run_command(args: argparse.Namespace) -> int:
    """Run the parsed experiment(s) or subcommand; returns the exit code."""
    if args.experiment == SERVE_COMMAND:
        return _run_serve(args)

    if args.experiment == COMPACT_COMMAND:
        print(f"== {COMPACT_COMMAND} ==\n{_run_compact(args.durable)}\n")
        return 0

    if args.experiment == FOLLOW_COMMAND:
        rendered = _run_follow(
            args.durable,
            follower_id=args.follower_id,
            polls=args.follow_polls,
            poll_interval_ms=args.follow_interval_ms,
        )
        print(f"== {FOLLOW_COMMAND} ==\n{rendered}\n")
        return 0

    if args.experiment == STATS_COMMAND and args.metrics_in:
        print(f"== {STATS_COMMAND} ==\n{_run_stats(None, args.metrics_in)}\n")
        return 0

    workload = default_workload(scale=args.scale, num_days=args.days, seed=args.seed)
    if args.index_snapshot:
        workload.index_snapshot_dir = args.index_snapshot

    if args.experiment == STATS_COMMAND:
        print(f"== {STATS_COMMAND} ==\n{_run_stats(workload, None)}\n")
        return 0

    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    sections = []
    for name in names:
        rendered = _run_one(
            name,
            workload,
            backend=args.backend,
            durable=args.durable,
            sync_mode=args.durable_sync,
            fsync_interval_ms=args.fsync_interval_ms,
        )
        sections.append(f"== {name} ==\n{rendered}\n")
        print(sections[-1])
    if args.output:
        Path(args.output).write_text("\n".join(sections))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
