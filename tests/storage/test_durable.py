"""DurableEngine: recovery parity, O(delta) checkpoints, compaction, errors.

The acceptance property of the storage layer is that a reopened durable
engine answers every query layer **bit-identically** to an engine that
never persisted (the "in-memory twin" receiving the same appends), while
checkpoints persist only the shards of heads whose hyperedges actually
changed.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.data.database import Database
from repro.engine import AssociationEngine
from repro.exceptions import EngineError, StorageCorruptionError, StorageError
from repro.storage import (
    CompactionPolicy,
    DurableEngine,
    read_manifest,
)

CONFIG = BuildConfig(
    name="storage-test",
    k=3,
    gamma_edge=1.0,
    gamma_hyperedge=1.2,
    min_acv=0.5,
    include_hyperedges=False,
)


def planted_database(num_groups=3, group_size=3, num_rows=120):
    """A market where appending an X-permuted duplicate dirties only head P.

    Groups of mutually copied attributes give every head stable, dense
    in-neighbourhoods; ``P = X % 2`` plants the one association whose
    counts an X permutation disturbs.
    """
    rng = np.random.default_rng(7)
    columns: dict[str, list[int]] = {}
    x = rng.integers(0, 6, num_rows)
    columns["X"] = x.tolist()
    columns["P"] = (x % 2).tolist()
    for g in range(num_groups):
        base = rng.integers(0, 3, num_rows)
        for m in range(group_size):
            columns[f"G{g}M{m}"] = base.tolist()
    attributes = list(columns)
    rows = [[columns[a][r] for a in attributes] for r in range(num_rows)]
    return Database(attributes, rows)


def x_permuted_duplicate(engine, seed=23):
    """Duplicate every stored row with the X column permuted between rows."""
    database = engine.engine._store.to_database() if isinstance(
        engine, DurableEngine
    ) else engine._store.to_database()
    x_position = list(database.attributes).index("X")
    rows = [list(row) for row in database.to_rows()]
    permutation = np.random.default_rng(seed).permutation(len(rows))
    x_values = [rows[permutation[i]][x_position] for i in range(len(rows))]
    for i, row in enumerate(rows):
        row[x_position] = x_values[i]
    return rows


def assert_engines_identical(recovered, twin):
    """Exact-equality parity over state and all four query layers."""
    assert recovered.num_observations == twin.num_observations
    recovered_graph = recovered.hypergraph
    twin_graph = twin.hypergraph
    # Per-head in-edge *order* must match too (canonical reconciliation):
    # shard local ids, and therefore classifier vote order, depend on it.
    for head in twin.head_attributes:
        assert [e.key() for e in recovered_graph.in_edges(head)] == [
            e.key() for e in twin_graph.in_edges(head)
        ]
        assert [e.weight for e in recovered_graph.in_edges(head)] == [
            e.weight for e in twin_graph.in_edges(head)
        ]
    assert recovered.stats() == twin.stats()

    attributes = twin.attributes
    for i, a in enumerate(attributes):
        for b in attributes[i + 1 :]:
            assert recovered.similarity(a, b) == twin.similarity(a, b)
    assert recovered.clusters(t=3) == twin.clusters(t=3)
    for algorithm in ("set-cover", "greedy"):
        assert recovered.dominators(algorithm=algorithm) == twin.dominators(
            algorithm=algorithm
        )
    evidence_attrs = [a for a in attributes if a != "P"][:4]
    row = twin._store.row_values(0)
    evidence = {a: row[a] for a in evidence_attrs}
    targets = [a for a in attributes if a not in evidence]
    assert recovered.classify(evidence, targets) == twin.classify(evidence, targets)


@pytest.fixture()
def seeded(tmp_path):
    """A durable engine over the planted database, plus its in-memory twin."""
    database = planted_database()
    durable = DurableEngine.create(
        tmp_path / "store",
        engine=AssociationEngine.from_database(database, CONFIG),
    )
    twin = AssociationEngine.from_database(database, CONFIG)
    return durable, twin


class TestRecoveryParity:
    def test_reopen_after_checkpoint_matches_twin(self, seeded, tmp_path):
        durable, twin = seeded
        rows = x_permuted_duplicate(durable)
        durable.append_rows(rows)
        durable.checkpoint()
        durable.close()
        twin.append_rows(rows)
        twin.refresh()

        recovered = DurableEngine.open(tmp_path / "store")
        assert_engines_identical(recovered, twin)

    def test_reopen_with_wal_tail_matches_twin(self, seeded, tmp_path):
        durable, twin = seeded
        first = x_permuted_duplicate(durable, seed=1)
        durable.append_rows(first)
        durable.checkpoint()
        twin.append_rows(first)
        twin.refresh()
        # Un-checkpointed tail: rows live only in the log.
        tail_rows = x_permuted_duplicate(durable, seed=2)
        durable.append_rows(tail_rows)
        durable.close()
        twin.append_rows(tail_rows)

        recovered = DurableEngine.open(tmp_path / "store")
        assert recovered.counters.recovered_rows == len(first) + len(tail_rows)
        assert_engines_identical(recovered, twin)

    def test_reopen_after_compaction_matches_twin(self, seeded, tmp_path):
        durable, twin = seeded
        for seed in (3, 4):
            rows = x_permuted_duplicate(durable, seed=seed)
            durable.append_rows(rows)
            durable.checkpoint()
            twin.append_rows(rows)
            twin.refresh()
        durable.compact()
        more = x_permuted_duplicate(durable, seed=5)
        durable.append_rows(more)
        durable.close()
        twin.append_rows(more)

        recovered = DurableEngine.open(tmp_path / "store")
        assert_engines_identical(recovered, twin)

    def test_fresh_directory_round_trips_empty_engine(self, tmp_path):
        database = planted_database(num_rows=8)
        durable = DurableEngine.create(
            tmp_path / "store", attributes=database.attributes, config=CONFIG
        )
        durable.close()
        recovered = DurableEngine.open(tmp_path / "store")
        assert recovered.num_observations == 0
        recovered.append_rows(database)
        assert recovered.num_observations == 8


class TestCheckpointIsDelta:
    def test_single_dirty_head_checkpoint_persists_one_shard(self, seeded, tmp_path):
        durable, _twin = seeded
        durable.append_rows(x_permuted_duplicate(durable))
        result = durable.checkpoint()
        assert result.dirty_heads == ("P",)
        assert result.delta_file is not None
        manifest = read_manifest(tmp_path / "store")
        assert [entry.heads for entry in manifest.deltas] == [("P",)]

    def test_checkpoint_without_changes_is_skipped(self, seeded):
        durable, _twin = seeded
        first = durable.checkpoint()
        assert first.skipped
        assert first.delta_file is None
        assert durable.counters.checkpoints == 0

    def test_rows_only_checkpoint_writes_no_delta(self, seeded):
        durable, _twin = seeded
        # Appending an exact duplicate of all rows doubles every count:
        # every weight is numerically unchanged, so no shard is dirty, but
        # the new rows must still be covered by a durable sync.
        rows = [list(r.values()) for r in map(durable.engine._store.row_values, range(4))]
        durable.append_rows(rows)
        result = durable.checkpoint()
        assert not result.skipped
        assert durable.manifest.num_rows == durable.num_observations
        assert durable.manifest.wal_tail == durable.wal.tail

    def test_reopen_after_checkpoint_serves_without_compiles(self, seeded, tmp_path):
        durable, _twin = seeded
        durable.append_rows(x_permuted_duplicate(durable))
        durable.checkpoint()
        durable.close()

        recovered = DurableEngine.open(tmp_path / "store")
        recovered.dominators(algorithm="greedy")
        # Base shards + the P delta mirror the exact final state: the first
        # query adopts them and compiles nothing.
        assert recovered.engine.counters.shard_compiles == 0
        assert recovered.engine.counters.full_compiles == 0

    def test_reopen_with_tail_recompiles_only_changed_heads(self, seeded, tmp_path):
        durable, _twin = seeded
        tail_rows = x_permuted_duplicate(durable)
        durable.append_rows(tail_rows)  # never checkpointed
        durable.close()

        recovered = DurableEngine.open(tmp_path / "store")
        recovered.dominators(algorithm="greedy")
        # Replaying the tail dirtied only P's signature relative to the
        # adopted base shards.
        assert recovered.engine.counters.shard_compiles == 1
        assert recovered.engine.counters.full_compiles == 0


class TestCompaction:
    def test_compact_folds_and_deletes(self, seeded, tmp_path):
        durable, _twin = seeded
        for seed in (1, 2):
            durable.append_rows(x_permuted_duplicate(durable, seed=seed))
            durable.checkpoint()
        directory = tmp_path / "store"
        assert list(directory.glob("delta-*.npz"))
        report = durable.compact()
        assert report.deltas_removed == 2
        assert not list(directory.glob("delta-*.npz"))
        assert len(list(directory.glob("base-*.json"))) == 1
        manifest = read_manifest(directory)
        assert manifest.deltas == []
        assert manifest.base_file == f"base-{report.checkpoint_id:08d}.json"

    def test_policy_triggers_auto_compaction(self, tmp_path):
        database = planted_database()
        durable = DurableEngine.create(
            tmp_path / "store",
            engine=AssociationEngine.from_database(database, CONFIG),
            policy=CompactionPolicy(max_wal_bytes=1 << 30, max_deltas=2),
        )
        results = []
        for seed in (1, 2, 3):
            durable.append_rows(x_permuted_duplicate(durable, seed=seed))
            results.append(durable.checkpoint())
        assert any(result.compacted for result in results)
        assert durable.counters.compactions >= 1
        assert len(durable.manifest.deltas) < 2

    def test_wal_size_triggers_auto_compaction(self, seeded):
        durable, _twin = seeded
        durable.policy = CompactionPolicy(max_wal_bytes=1, max_deltas=10_000)
        durable.append_rows(x_permuted_duplicate(durable))
        result = durable.checkpoint()
        assert result.compacted
        assert durable.wal.total_bytes(since=durable.manifest.base_wal) == 0


class TestCorruptionAndErrors:
    def test_torn_unacknowledged_tail_recovers_prefix(self, seeded, tmp_path):
        durable, twin = seeded
        checkpointed = x_permuted_duplicate(durable, seed=1)
        durable.append_rows(checkpointed)
        durable.checkpoint()
        twin.append_rows(checkpointed)
        durable.append_rows(x_permuted_duplicate(durable, seed=2))  # tail only
        durable.close()

        segment = sorted((tmp_path / "store" / "wal").glob("wal-*.log"))[-1]
        segment.write_bytes(segment.read_bytes()[:-7])

        recovered = DurableEngine.open(tmp_path / "store")
        # The torn batch is dropped whole; the checkpointed prefix survives.
        assert recovered.num_observations == twin.num_observations
        assert_engines_identical(recovered, twin)

    def test_torn_acknowledged_tail_raises(self, seeded, tmp_path):
        durable, _twin = seeded
        durable.append_rows(x_permuted_duplicate(durable))
        durable.checkpoint()
        durable.close()
        segment = sorted((tmp_path / "store" / "wal").glob("wal-*.log"))[-1]
        segment.write_bytes(segment.read_bytes()[:-7])
        with pytest.raises(StorageCorruptionError, match="acknowledged"):
            DurableEngine.open(tmp_path / "store")

    def test_corrupt_delta_raises(self, seeded, tmp_path):
        durable, _twin = seeded
        durable.append_rows(x_permuted_duplicate(durable))
        durable.checkpoint()
        durable.close()
        delta = next((tmp_path / "store").glob("delta-*.npz"))
        data = bytearray(delta.read_bytes())
        data[len(data) // 2] ^= 0xFF
        delta.write_bytes(bytes(data))
        with pytest.raises(StorageCorruptionError):
            DurableEngine.open(tmp_path / "store")

    def test_corrupt_manifest_raises(self, seeded, tmp_path):
        durable, _twin = seeded
        durable.close()
        (tmp_path / "store" / "MANIFEST.json").write_text("{not json")
        with pytest.raises(StorageCorruptionError, match="manifest"):
            DurableEngine.open(tmp_path / "store")

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(StorageCorruptionError, match="MANIFEST"):
            DurableEngine.open(tmp_path / "empty")

    def test_create_twice_raises(self, seeded, tmp_path):
        with pytest.raises(StorageError, match="already"):
            DurableEngine.create(
                tmp_path / "store", attributes=("A", "B"), config=CONFIG
            )

    def test_create_needs_engine_or_attributes(self, tmp_path):
        with pytest.raises(StorageError, match="attribute list"):
            DurableEngine.create(tmp_path / "store")

    def test_closed_engine_refuses_appends(self, seeded):
        durable, _twin = seeded
        durable.close()
        with pytest.raises(StorageError, match="closed"):
            durable.append_row([0] * len(durable.attributes))
        with pytest.raises(StorageError, match="closed"):
            durable.checkpoint()

    def test_non_scalar_values_are_refused(self, seeded):
        durable, _twin = seeded
        row = [0] * len(durable.attributes)
        row[0] = (1, 2)  # a tuple would silently decode as a list
        with pytest.raises(StorageError, match="cannot be framed"):
            durable.append_row(row)
        # Nothing was logged or appended.
        assert durable.counters.appended_batches == 0

    def test_mismatched_database_attributes_raise(self, seeded):
        durable, _twin = seeded
        other = Database(("A", "B"), [[1, 2]])
        with pytest.raises(EngineError, match="attributes"):
            durable.append_rows(other)


class TestDelegationAndLifecycle:
    def test_queries_delegate_to_engine(self, seeded):
        durable, twin = seeded
        a, b = durable.attributes[:2]
        assert durable.similarity(a, b) == twin.similarity(a, b)
        assert durable.num_observations == twin.num_observations
        assert durable.config.name == CONFIG.name

    def test_context_manager_closes(self, tmp_path):
        database = planted_database(num_rows=8)
        with DurableEngine.create(
            tmp_path / "store",
            engine=AssociationEngine.from_database(database, CONFIG),
        ) as durable:
            durable.append_rows(database.to_rows())
        with pytest.raises(StorageError, match="closed"):
            durable.checkpoint()
        # Close is idempotent and the unchecked tail replays on reopen.
        durable.close()
        recovered = DurableEngine.open(tmp_path / "store")
        assert recovered.num_observations == 16

    def test_reopened_engine_is_freed_without_the_cycle_collector(
        self, seeded, tmp_path
    ):
        durable, _twin = seeded
        durable.close()
        gc.disable()  # only reference counting may free the pair
        try:
            recovered = DurableEngine.open(tmp_path / "store")
            # The base count archive is staged for a first refresh that
            # never runs; the staged loader must not pin the engine.
            assert recovered.engine._count_loader is not None
            engine, wrapper = weakref.ref(recovered.engine), weakref.ref(recovered)
            recovered.close()
            del recovered
            assert engine() is None
            assert wrapper() is None
        finally:
            gc.enable()

    def test_manifest_wal_position_survives_json_round_trip(self, seeded, tmp_path):
        durable, _twin = seeded
        durable.append_rows(x_permuted_duplicate(durable))
        durable.checkpoint()
        raw = json.loads((tmp_path / "store" / "MANIFEST.json").read_text())
        assert raw["format"] == "repro.storage/1"
        assert raw["wal_tail"]["segment"] >= 1
        assert raw["num_rows"] == durable.num_observations
