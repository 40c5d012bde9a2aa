#!/usr/bin/env python
"""Gate freshly produced ``BENCH_*.json`` files against committed baselines.

The benchmark harness records its timings as ``BENCH_<name>.json`` at the
repository root; this script compares them with the copies committed under
``benchmarks/baselines/`` and fails (exit 1) with a per-metric report when
a tracked metric regressed beyond tolerance.  CI runs it right after the
benchmark harness, so the wins the BENCH trajectory records — recovery
beating snapshot+re-append, group commit amortizing fsyncs, binary frames
staying small — are *held*, not merely uploaded.

Policy
------
Absolute timings vary wildly across runners, so only **ratio metrics**
(machine-normalized, higher is better) are gated:

* a metric named in ``RATIO_METRICS`` (``speedup``, ``size_ratio``,
  ``throughput_fraction``, ...) must stay within ``--tolerance`` (default
  35%) of its committed baseline, failing *below* the bound, and
* hard floors (the numbers the benchmarks themselves assert, mirrored in
  ``FLOORS``) apply regardless of the baseline — a baseline refresh can
  never quietly lower a promised bound, and a floored metric with no
  baseline entry is still checked against its floor.

Everything else (raw seconds, byte counts, row counts) is reported for
context but never fails the gate.

A benchmark that cannot run on the current machine records its section as
``{"_skipped": 1, ...}`` instead of timings (e.g. process-pool scaling on
a single-core runner).  Skipped sections are exempt from both the ratio
comparison and the hard floors — in whichever direction the asymmetry
runs: a skipped *current* section waives its gates, and a skipped
*baseline* section leaves the floors to gate the current numbers alone.
Keys starting with ``_`` are markers, never metrics.

Usage::

    python benchmarks/check_regressions.py \
        [--baseline-dir benchmarks/baselines] [--current-dir .] \
        [--tolerance 0.35]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Metric names (the innermost key) gated against the baseline ratio.
RATIO_METRICS = frozenset(
    [
        "speedup",
        "size_ratio",
        "decode_speedup",
        "index_ready_speedup",
        "fraction_of_no_sync_throughput",
        "throughput_fraction",
    ]
)

#: Hard floors mirroring the asserts inside the benchmark modules:
#: ``{file: {"<section>.<metric>": floor}}``.  These hold even when the
#: baseline itself is regenerated.
FLOORS = {
    "BENCH_storage.json": {
        "checkpoint_vs_full_save.speedup": 5.0,
        "cold_open_vs_json_rebuild.speedup": 1.0,
        "recovery_with_wal_tail.speedup": 1.0,
        "group_commit_append.speedup": 3.0,
        "binary_wal_frames.size_ratio": 3.0,
    },
    "BENCH_obs.json": {
        "append_overhead.throughput_fraction": 0.95,
    },
    "BENCH_shards.json": {
        "incremental_refresh.speedup": 3.0,
        "incremental_rewrite_tables.speedup": 1.0,
        "snapshot_cold_start.index_ready_speedup": 2.0,
        "bitset_set_cover.speedup": 1.0,
        "vectorized_evaluate.speedup": 1.0,
    },
    "BENCH_replication.json": {
        "scaling_2_followers.speedup": 1.8,
        "restart_catchup.speedup": 1.0,
    },
    "BENCH_serving.json": {
        "multi_reader_scaling.speedup": 1.8,
    },
    "BENCH_kernels.json": {
        "similarity_matrix.speedup": 5.0,
        "large_refresh.speedup": 3.0,
        "process_pool_compile.speedup": 1.5,
        "greedy_cover_round.speedup": 1.0,
    },
}


def iter_metrics(document: dict):
    """Yield ``(dotted_name, value)`` for every numeric leaf metric.

    Keys starting with ``_`` (the ``_skipped`` marker family) are not
    metrics and are never yielded.
    """
    for section, metrics in sorted(document.items()):
        if not isinstance(metrics, dict):
            continue
        for name, value in sorted(metrics.items()):
            if name.startswith("_"):
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield f"{section}.{name}", float(value)


def skipped_sections(document: dict) -> set[str]:
    """Section names the producing machine marked as not runnable."""
    return {
        section
        for section, metrics in document.items()
        if isinstance(metrics, dict) and metrics.get("_skipped")
    }


def check_file(
    baseline_path: Path,
    current_path: Path,
    tolerance: float,
) -> tuple[list[str], list[str]]:
    """Compare one benchmark file; returns ``(failures, report_lines)``."""
    failures: list[str] = []
    lines: list[str] = []
    baseline = json.loads(baseline_path.read_text())
    if not current_path.exists():
        return (
            [
                f"{current_path.name}: missing — the benchmark harness did not "
                "produce it (did a benchmark module fail before its artifact "
                "test ran?)"
            ],
            lines,
        )
    current = json.loads(current_path.read_text())
    floors = FLOORS.get(baseline_path.name, {})
    current_metrics = dict(iter_metrics(current))
    baseline_metrics = dict(iter_metrics(baseline))
    skipped = skipped_sections(current)
    for name, base_value in baseline_metrics.items():
        metric = name.rsplit(".", 1)[1]
        if name.split(".", 1)[0] in skipped:
            lines.append(f"  [skipped] {name}: not runnable on this machine")
            continue
        value = current_metrics.get(name)
        if value is None:
            if metric in RATIO_METRICS:
                failures.append(f"{baseline_path.name}: {name} disappeared")
            continue
        if metric not in RATIO_METRICS:
            lines.append(f"  [info] {name}: {base_value:.4g} -> {value:.4g}")
            continue
        allowed = base_value * (1.0 - tolerance)
        floor = floors.get(name)
        bound = max(allowed, floor) if floor is not None else allowed
        status = "ok"
        if value < bound:
            status = "REGRESSED"
            failures.append(
                f"{baseline_path.name}: {name} = {value:.3f}, below "
                f"{bound:.3f} (baseline {base_value:.3f} - {tolerance:.0%}"
                + (f", floor {floor}" if floor is not None else "")
                + ")"
            )
        lines.append(
            f"  [{status}] {name}: baseline {base_value:.3f}, "
            f"current {value:.3f}, bound {bound:.3f}"
        )
    # Floors hold even without a baseline entry: a baseline refresh that
    # dropped (or renamed) a section must not quietly un-hold a promised
    # bound.
    for name, floor in sorted(floors.items()):
        if name in baseline_metrics:
            continue  # gated above, floor included in the bound
        if name.split(".", 1)[0] in skipped:
            lines.append(f"  [skipped] {name}: not runnable on this machine")
            continue
        value = current_metrics.get(name)
        if value is None:
            failures.append(
                f"{baseline_path.name}: floored metric {name} is absent from "
                "both baseline and current results"
            )
        elif value < floor:
            failures.append(
                f"{baseline_path.name}: {name} = {value:.3f}, below its hard "
                f"floor {floor} (metric has no baseline entry)"
            )
        else:
            lines.append(
                f"  [ok] {name}: current {value:.3f}, floor {floor} "
                "(no baseline entry)"
            )
    return failures, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare fresh BENCH_*.json files against committed baselines."
    )
    repo_root = Path(__file__).resolve().parent.parent
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=repo_root / "benchmarks" / "baselines",
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=Path.cwd(),
        help="directory holding the freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.35,
        help="allowed relative drop of a ratio metric below its baseline",
    )
    args = parser.parse_args(argv)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines found under {args.baseline_dir}", file=sys.stderr)
        return 2

    all_failures: list[str] = []
    for baseline_path in baselines:
        current_path = args.current_dir / baseline_path.name
        failures, lines = check_file(baseline_path, current_path, args.tolerance)
        print(f"{baseline_path.name}:")
        for line in lines:
            print(line)
        all_failures.extend(failures)

    if all_failures:
        print("\nBenchmark regression gate FAILED:", file=sys.stderr)
        for failure in all_failures:
            print(f"  - {failure}", file=sys.stderr)
        print(
            "\nIf a slowdown is intended (e.g. a benchmark was rescaled), "
            "refresh benchmarks/baselines/ in the same change and explain "
            "why in the commit message.",
            file=sys.stderr,
        )
        return 1
    print("\nBenchmark regression gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
