"""Property tests for WAL-shipped read replicas.

Three invariants, checked over hypothesis-generated scenarios and fixed
adversarial constructions:

* **Watermark parity** — any interleaving of leader ``append`` /
  ``checkpoint`` / ``compact`` with follower ``poll`` / ``restart``
  leaves a caught-up follower bit-identical to the leader on every query
  layer (per-head edge order, stats, similarity, clusters, both
  dominator algorithms, classification).  Checkpoints and compactions on
  the leader must be invisible to the follower beyond shortening its
  next bootstrap.
* **Torn tails wait** — a half-written frame at the log tail applies
  nothing, raises nothing, and the poll after the frame completes
  applies it; torn bytes are "the leader is still writing", never
  corruption.
* **Mixed generations tail** — JSON row frames (the first-generation
  payload) and binary frames interleaved in one log apply identically
  through a follower's tail.
"""

from __future__ import annotations

import gc
import json
import struct
import tempfile
import weakref
import zlib
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BuildConfig
from repro.engine import AssociationEngine
from repro.exceptions import StorageError
from repro.storage import DurableEngine, ReplicaEngine, ROWS_RECORD, list_follower_leases

CONFIG = BuildConfig(
    name="replica-test",
    k=2,
    gamma_edge=1.0,
    gamma_hyperedge=1.2,
    min_acv=0.4,
    include_hyperedges=True,
)

ATTRIBUTES = ("A", "B", "C", "D")
VALUES = (0, 1, 2)

_HEADER = struct.Struct("<2sBII")


def row_batches():
    return st.lists(
        st.lists(
            st.sampled_from(VALUES), min_size=len(ATTRIBUTES), max_size=len(ATTRIBUTES)
        ),
        min_size=1,
        max_size=4,
    )


def assert_same_answers(follower, leader):
    """Exact equality across every query layer plus model state."""
    assert follower.num_observations == leader.num_observations
    follower_graph = follower.hypergraph
    leader_graph = leader.hypergraph
    for head in ATTRIBUTES:
        assert [(e.key(), e.weight) for e in follower_graph.in_edges(head)] == [
            (e.key(), e.weight) for e in leader_graph.in_edges(head)
        ]
    assert follower.stats() == leader.stats()
    for i, a in enumerate(ATTRIBUTES):
        for b in ATTRIBUTES[i + 1 :]:
            assert follower.similarity(a, b) == leader.similarity(a, b)
    assert follower.clusters(t=2) == leader.clusters(t=2)
    for algorithm in ("set-cover", "greedy"):
        assert follower.dominators(algorithm=algorithm) == leader.dominators(
            algorithm=algorithm
        )
    if leader.num_observations:
        evidence = {a: leader._store.row_values(0)[a] for a in ATTRIBUTES[:2]}
        assert follower.classify(evidence) == leader.classify(evidence)


def make_json_frame(rows) -> bytes:
    """A first-generation (JSON) row-batch frame, byte-exact."""
    payload = json.dumps({"rows": rows}).encode("utf-8")
    return (
        _HEADER.pack(
            b"RW",
            ROWS_RECORD,
            zlib.crc32(bytes((ROWS_RECORD,)) + payload),
            len(payload),
        )
        + payload
    )


def last_segment(directory: Path) -> Path:
    return sorted((directory / "wal").glob("wal-*.log"))[-1]


class TestInterleavedReplicationParity:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_any_interleaving_matches_leader_at_watermark(self, data):
        ops = data.draw(
            st.lists(
                st.sampled_from(
                    ("append", "checkpoint", "compact", "poll", "restart")
                ),
                min_size=1,
                max_size=8,
            )
        )
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "store"
            leader = DurableEngine.create(
                directory, attributes=ATTRIBUTES, config=CONFIG, values=VALUES
            )
            leader.checkpoint()  # publish a manifest for the first bootstrap
            follower = ReplicaEngine.open(directory, follower_id="prop-follower")
            try:
                for op in ops:
                    if op == "append":
                        leader.append_rows(data.draw(row_batches()))
                    elif op == "checkpoint":
                        leader.checkpoint()
                    elif op == "compact":
                        leader.compact()
                    elif op == "poll":
                        follower.poll()
                    else:  # restart
                        follower.close()
                        follower = ReplicaEngine.open(
                            directory, follower_id="prop-follower"
                        )
                # With the leader idle, a bounded catch-up must converge on
                # the leader's exact state — whatever raced before.
                follower.catch_up(timeout=30.0)
                assert_same_answers(follower, leader.engine)
                # And survive one more restart at the final watermark.
                follower.close()
                follower = ReplicaEngine.open(directory, follower_id="prop-follower")
                follower.catch_up(timeout=30.0)
                assert_same_answers(follower, leader.engine)
            finally:
                follower.close()
                leader.close()


class TestTornAndMixedTails:
    BATCH = [[0, 1, 2, 0], [1, 1, 0, 2], [2, 0, 1, 1]]
    TAIL_ROWS = [[1, 2, 0, 0], [2, 2, 1, 0]]

    def test_torn_tail_applies_nothing_then_resumes(self, tmp_path):
        directory = tmp_path / "store"
        leader = DurableEngine.create(
            directory, attributes=ATTRIBUTES, config=CONFIG, values=VALUES
        )
        leader.append_rows(self.BATCH)
        leader.checkpoint()
        with ReplicaEngine.open(directory) as follower:
            follower.catch_up(timeout=30.0)
            rows_before = follower.num_observations

            # A frame torn mid-write at the tail: the follower applies
            # nothing, raises nothing, and reports the bytes as lag.
            frame = make_json_frame(self.TAIL_ROWS)
            torn = len(frame) // 2
            segment = last_segment(directory)
            with segment.open("ab") as handle:
                handle.write(frame[:torn])
            assert follower.poll() == 0
            assert follower.num_observations == rows_before
            assert follower.lag().bytes > 0

            # The frame completes (the leader finished its write): the
            # next poll applies the batch atomically.
            with segment.open("ab") as handle:
                handle.write(frame[torn:])
            assert follower.poll() == len(self.TAIL_ROWS)
            assert follower.num_observations == rows_before + len(self.TAIL_ROWS)
        leader.close()

    def test_mixed_json_and_binary_frames_tail_identically(self, tmp_path):
        directory = tmp_path / "store"
        leader = DurableEngine.create(
            directory, attributes=ATTRIBUTES, config=CONFIG, values=VALUES
        )
        leader.append_rows([[0, 0, 2, 2]])  # materializes the first segment
        leader.checkpoint()
        with ReplicaEngine.open(directory) as follower:
            follower.catch_up(timeout=30.0)

            # A first-generation JSON frame lands in the log (an old-format
            # writer); the leader's engine ingests the same rows so leader
            # and log agree.
            with last_segment(directory).open("ab") as handle:
                handle.write(make_json_frame(self.BATCH))
            leader.engine.append_rows(self.BATCH)

            # Then the current binary path appends through the leader.
            leader.append_rows(self.TAIL_ROWS)

            assert follower.poll() == len(self.BATCH) + len(self.TAIL_ROWS)
            assert_same_answers(follower, leader.engine)
        leader.close()


class TestWriteSurfaceAndLeases:
    def test_followers_cannot_write(self, tmp_path):
        directory = tmp_path / "store"
        leader = DurableEngine.create(
            directory, attributes=ATTRIBUTES, config=CONFIG, values=VALUES
        )
        leader.checkpoint()
        with ReplicaEngine.open(directory) as follower:
            calls = (
                ("append_rows", ([[0, 1, 2, 0]],)),
                ("append_row", ([0, 1, 2, 0],)),
                ("checkpoint", ()),
                ("compact", ()),
                ("flush", ()),
            )
            for operation, args in calls:
                try:
                    getattr(follower, operation)(*args)
                except StorageError:
                    continue
                raise AssertionError(f"{operation} did not raise on a follower")
        leader.close()

    def test_close_drops_the_lease(self, tmp_path):
        directory = tmp_path / "store"
        leader = DurableEngine.create(
            directory, attributes=ATTRIBUTES, config=CONFIG, values=VALUES
        )
        leader.checkpoint()
        follower = ReplicaEngine.open(directory, follower_id="lease-test")
        assert any(
            lease["follower_id"] == "lease-test"
            for lease in list_follower_leases(directory)
        )
        follower.close()
        assert not any(
            lease["follower_id"] == "lease-test"
            for lease in list_follower_leases(directory)
        )
        leader.close()

    def test_fresh_lease_holds_segments_across_compaction(self, tmp_path):
        directory = tmp_path / "store"
        leader = DurableEngine.create(
            directory, attributes=ATTRIBUTES, config=CONFIG, values=VALUES
        )
        leader.append_rows(self.BATCH_A)
        leader.checkpoint()
        with ReplicaEngine.open(directory) as follower:
            follower.catch_up(timeout=30.0)
            leader.append_rows(self.BATCH_B)
            report = leader.compact()
            # The follower's lease pinned its position: compaction held
            # the segments it still needs, and the follower keeps tailing
            # straight across the compaction without a re-bootstrap.
            assert report.segments_held_for_followers > 0
            follower.catch_up(timeout=30.0)
            assert follower.counters["rebootstraps"] == 0
            assert_same_answers(follower, leader.engine)
        leader.close()

    BATCH_A = [[0, 1, 2, 0], [1, 1, 0, 2]]
    BATCH_B = [[2, 1, 2, 1], [1, 0, 0, 1]]

    def test_stale_lease_follower_rebootstraps_after_compaction(self, tmp_path):
        directory = tmp_path / "store"
        leader = DurableEngine.create(
            directory, attributes=ATTRIBUTES, config=CONFIG, values=VALUES
        )
        leader.append_rows(self.BATCH_A)
        leader.checkpoint()
        # A zero-TTL lease is stale the moment it is written: compaction
        # ignores it and may delete segments the follower still needs.
        follower = ReplicaEngine.open(
            directory, follower_id="stale", lease_ttl_seconds=0.0
        )
        try:
            follower.catch_up(timeout=30.0)
            leader.append_rows(self.BATCH_B)
            leader.checkpoint()
            leader.compact()
            leader.append_rows([[0, 0, 2, 2]])
            # Polls either keep working (position survived) or strike out
            # and re-bootstrap from the fresh manifest; either way the
            # follower converges on the leader's exact state.
            follower.catch_up(timeout=30.0)
            assert_same_answers(follower, leader.engine)
        finally:
            follower.close()
            leader.close()


def test_bootstrapped_follower_is_freed_without_the_cycle_collector(tmp_path):
    directory = tmp_path / "store"
    leader = DurableEngine.create(
        directory, attributes=ATTRIBUTES, config=CONFIG, values=VALUES
    )
    leader.append_rows([[0, 1, 2, 0], [1, 1, 0, 2], [2, 0, 1, 1]] * 4)
    leader.compact()
    leader.close()
    gc.disable()  # only reference counting may free the follower
    try:
        follower = ReplicaEngine.open(directory, follower_id="gc-follower")
        assert follower.engine._count_loader is not None
        engine, replica = weakref.ref(follower.engine), weakref.ref(follower)
        follower.close()
        del follower
        assert engine() is None
        assert replica() is None
    finally:
        gc.enable()
    # The staged archive still reaches the follower's counters.
    with ReplicaEngine.open(directory, follower_id="gc-follower") as follower:
        follower.engine.export_count_states()
        assert follower.counters["count_states_restored"] > 0
