"""Concurrency contracts of the serving core.

The claims under test are exactly the ones the design makes:

* **Snapshot isolation** — a reader holding a published snapshot gets
  bit-identical answers at that version no matter how many appends and
  publishes land concurrently.
* **Appends never block queries** — with the writer thread artificially
  wedged mid-append, queries keep answering from the current snapshot.
* **Atomic publish** — readers only ever observe complete versions, and
  versions are monotone per observer.
* **Tenant lifecycle** — LRU eviction checkpoints to the durable
  directory, off the evicting request's path and folded into a fresh
  base, and a later touch waits for that checkpoint, then re-opens with
  *zero* shard compiles (the base sidecars are adopted, not rebuilt).  A
  checkpoint that fails on eviction still closes the tenant's log.
* **Read-your-writes** — an append returns only once a published
  snapshot holds its rows, and a failed publish fails the waiting
  appends at once instead of leaving them to time out.
"""

from __future__ import annotations

import errno
import sys
import threading
import time
import traceback

import pytest

from repro.exceptions import (
    EngineError,
    ServeError,
    TenantExistsError,
    TenantNotFoundError,
    TenantOverloadedError,
    TenantUnavailableError,
)
from repro.serve import TenantManager
from repro.serve.service import _Tenant
from repro.storage import read_manifest

ATTRIBUTES = ["sector", "trend", "volume"]


def rows(count: int, start: int = 0) -> list[list[str]]:
    return [
        [f"s{(start + i) % 3}", f"t{(start + i) % 4}", f"v{(start + i) % 5}"]
        for i in range(count)
    ]


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


@pytest.fixture()
def manager(tmp_path):
    with TenantManager(tmp_path / "serve") as m:
        yield m


def reference_answers(engine) -> dict:
    """Every query layer's answer, for bit-identical comparison."""
    attrs = sorted(engine.attributes)
    return {
        "similarity": {
            (a, b): engine.similarity(a, b)
            for i, a in enumerate(attrs)
            for b in attrs[i + 1 :]
        },
        "clusters": engine.clusters(t=2),
        "dominators": engine.dominators(algorithm="set-cover"),
        "classify": engine.classify({"sector": "s0"}),
    }


# ------------------------------------------------------------------ basics
def test_create_append_query_roundtrip(manager):
    stats = manager.create_tenant("market", ATTRIBUTES)
    assert stats.version == 1 and stats.num_rows == 0 and stats.resident
    appended = manager.append("market", rows(60))
    assert appended == 60
    assert wait_until(lambda: manager.snapshot("market").num_rows == 60)
    value, snapshot = manager.query("market", "similarity", first="sector", second="trend")
    assert 0.0 <= value <= 1.0
    assert snapshot.num_rows == 60 and snapshot.version >= 2


def test_append_accepts_mapping_rows(manager):
    manager.create_tenant("m", ATTRIBUTES)
    appended = manager.append(
        "m", [{"sector": "s1", "trend": "t1", "volume": "v1"}]
    )
    assert appended == 1
    assert wait_until(lambda: manager.snapshot("m").num_rows == 1)


def test_dataset_id_validation(manager):
    for bad in ("", ".hidden", "a/b", "x" * 200, 7):
        with pytest.raises(ServeError):
            manager.create_tenant(bad, ATTRIBUTES)
    with pytest.raises(TenantNotFoundError):
        manager.snapshot("never-created")
    manager.create_tenant("dup", ATTRIBUTES)
    with pytest.raises(TenantExistsError):
        manager.create_tenant("dup", ATTRIBUTES)


def test_max_tenants_must_be_positive(tmp_path):
    with pytest.raises(ServeError):
        TenantManager(tmp_path, max_tenants=0)


def test_closed_manager_refuses(tmp_path):
    manager = TenantManager(tmp_path / "serve")
    manager.create_tenant("m", ATTRIBUTES)
    manager.close()
    manager.close()  # idempotent
    with pytest.raises(ServeError):
        manager.snapshot("m")


# ------------------------------------------------------------------ isolation
def test_snapshot_isolation_bit_identical_under_appends(manager):
    manager.create_tenant("iso", ATTRIBUTES)
    manager.append("iso", rows(80))
    assert wait_until(lambda: manager.snapshot("iso").num_rows == 80)

    held = manager.snapshot("iso")
    baseline = reference_answers(held.engine)
    for batch in range(6):
        manager.append("iso", rows(15, start=80 + batch * 15))
        # The held snapshot must stay bit-identical at its version even
        # as newer versions are published underneath it.
        assert reference_answers(held.engine) == baseline
    assert wait_until(lambda: manager.snapshot("iso").num_rows == 170)
    latest = manager.snapshot("iso")
    assert latest.version > held.version
    assert latest.num_rows == 170 and held.num_rows == 80
    assert reference_answers(held.engine) == baseline


def test_query_never_blocks_on_a_wedged_writer(manager):
    manager.create_tenant("wedge", ATTRIBUTES)
    manager.append("wedge", rows(40))
    assert wait_until(lambda: manager.snapshot("wedge").num_rows == 40)
    tenant = manager._resolve("wedge")
    held_version = tenant.snapshot.version

    release = threading.Event()
    original = tenant._durable.append_rows

    def wedged(batch):
        release.wait(timeout=30.0)
        return original(batch)

    tenant._durable.append_rows = wedged
    writer = threading.Thread(
        target=manager.append, args=("wedge", rows(10, start=40)), daemon=True
    )
    writer.start()
    try:
        # With the writer wedged mid-append, every query must still answer
        # promptly from the published snapshot at the old version.
        started = time.monotonic()
        for _ in range(25):
            value, snapshot = manager.query(
                "wedge", "similarity", first="sector", second="trend"
            )
            assert snapshot.version == held_version
        assert time.monotonic() - started < 10.0
    finally:
        release.set()
        writer.join(timeout=30.0)
    assert not writer.is_alive()
    tenant._durable.append_rows = original
    assert wait_until(lambda: manager.snapshot("wedge").num_rows == 50)
    assert manager.snapshot("wedge").version > held_version


def test_publish_is_an_atomic_swap_with_monotone_versions(manager):
    manager.create_tenant("atomic", ATTRIBUTES)
    manager.append("atomic", rows(30))
    assert wait_until(lambda: manager.snapshot("atomic").num_rows == 30)

    stop = threading.Event()
    failures: list[str] = []

    def reader() -> None:
        last_version = 0
        while not stop.is_set():
            snapshot = manager.snapshot("atomic")
            # A torn publish would show a version/num_rows pair that never
            # existed; versions must also be monotone per observer.
            if snapshot.version < last_version:
                failures.append(
                    f"version went backwards: {last_version} -> {snapshot.version}"
                )
            if snapshot.engine.num_observations != snapshot.num_rows:
                failures.append("snapshot fields disagree with its engine")
            last_version = snapshot.version

    threads = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
    for thread in threads:
        thread.start()
    for batch in range(8):
        manager.append("atomic", rows(10, start=30 + batch * 10))
    assert wait_until(lambda: manager.snapshot("atomic").num_rows == 110)
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    assert failures == []
    tenant = manager._resolve("atomic")
    assert tenant.publishes == manager.snapshot("atomic").version


def test_published_reader_engines_never_compile_shards(manager):
    manager.create_tenant("zero", ATTRIBUTES)
    manager.append("zero", rows(50))
    assert wait_until(lambda: manager.snapshot("zero").num_rows == 50)
    engine = manager.snapshot("zero").engine
    reference_answers(engine)  # exercise every query layer
    counters = engine.counters
    assert counters.shard_compiles == 0
    assert counters.full_compiles == 0


# ----------------------------------------------------------- read-your-writes
def test_acknowledged_appends_are_visible_to_the_next_read(manager):
    """No sleep, no poll: right after ``append`` returns, the current
    snapshot holds at least every row this thread has had acknowledged."""
    seed, writers, batches, batch_rows = 20, 4, 25, 3
    manager.create_tenant("ryw", ATTRIBUTES)
    manager.append("ryw", rows(seed))
    failures: list[str] = []

    def writer(offset: int) -> None:
        acknowledged = seed
        for batch in range(batches):
            start = offset + batch * batch_rows
            acknowledged += manager.append("ryw", rows(batch_rows, start=start))
            visible = manager.snapshot("ryw").num_rows
            if visible < acknowledged:
                failures.append(f"{visible} rows visible, {acknowledged} acked")

    threads = [
        threading.Thread(target=writer, args=(1000 * t,), daemon=True)
        for t in range(writers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the writer and the callers finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    total = seed + writers * batches * batch_rows
    assert manager.snapshot("ryw").num_rows == total


def test_acknowledged_appends_survive_concurrent_eviction_churn(tmp_path):
    """More writers than cores append across more tenants than stay
    resident, so evictions checkpoint in the background while re-opens
    race them; every acknowledged row stays visible, then durable."""
    ids = [f"churn{i}" for i in range(5)]
    writers, batches = 4, 15
    acknowledged = dict.fromkeys(ids, 0)
    lock = threading.Lock()
    failures: list[str] = []
    with TenantManager(tmp_path / "serve", max_tenants=2) as manager:
        for dataset_id in ids:
            manager.create_tenant(dataset_id, ATTRIBUTES)

        def writer(offset: int) -> None:
            try:
                for batch in range(batches):
                    dataset_id = ids[(offset + batch) % len(ids)]
                    batch_rows = rows(2, start=100 * offset + batch)
                    added = manager.append(dataset_id, batch_rows)
                    with lock:
                        acknowledged[dataset_id] += added
                        expected = acknowledged[dataset_id]
                    visible = manager.snapshot(dataset_id).num_rows
                    if visible < expected:
                        failures.append(f"{dataset_id}: {visible} < {expected} rows")
            except Exception:
                failures.append(traceback.format_exc())

        threads = [
            threading.Thread(target=writer, args=(t,), daemon=True)
            for t in range(writers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert manager.stats().evictions > 0
        for dataset_id in ids:
            assert manager.snapshot(dataset_id).num_rows == acknowledged[dataset_id]
    with TenantManager(tmp_path / "serve") as reopened:
        for dataset_id in ids:
            assert reopened.snapshot(dataset_id).num_rows == acknowledged[dataset_id]


def test_failed_publish_fails_waiting_appends_and_keeps_the_writer(
    manager, monkeypatch
):
    manager.create_tenant("flaky", ATTRIBUTES)
    manager.append("flaky", rows(10))
    tenant = manager._resolve("flaky")
    build = _Tenant._build_snapshot
    failures = [RuntimeError("clone failed")]

    def fails_once(self):
        if failures:
            raise failures.pop()
        return build(self)

    monkeypatch.setattr(_Tenant, "_build_snapshot", fails_once)
    started = time.monotonic()
    with pytest.raises(TenantUnavailableError, match="logged durably") as raised:
        manager.append("flaky", rows(5, start=10))
    assert time.monotonic() - started < 5.0
    assert isinstance(raised.value.__cause__, RuntimeError)
    assert tenant._thread.is_alive()

    # The next applied batch republishes, holding both batches.
    assert manager.append("flaky", rows(5, start=15)) == 5
    assert manager.snapshot("flaky").num_rows == 20
    assert tenant.queue_depth == 0


# ------------------------------------------------------------------ lifecycle
def test_lru_eviction_checkpoints_and_reopens_with_zero_compiles(tmp_path):
    with TenantManager(tmp_path / "serve", max_tenants=2) as manager:
        manager.create_tenant("t1", ATTRIBUTES)
        manager.append("t1", rows(40))
        assert wait_until(lambda: manager.snapshot("t1").num_rows == 40)
        baseline = manager.similarity("t1", "sector", "volume")
        manager.create_tenant("t2", ATTRIBUTES)
        manager.create_tenant("t3", ATTRIBUTES)  # evicts t1 (the LRU)
        assert manager.resident() == ("t2", "t3")
        assert manager.stats().evictions == 1
        assert set(manager.known_datasets()) == {"t1", "t2", "t3"}
        offline = manager.tenant_stats("t1")
        assert not offline.resident and offline.num_rows == -1

        # Touching t1 re-opens it from its checkpoint, evicting t2.
        snapshot = manager.snapshot("t1")
        assert snapshot.num_rows == 40
        assert manager.resident() == ("t3", "t1")
        assert manager.similarity("t1", "sector", "volume") == baseline
        live = manager._resolve("t1")._durable.engine
        assert live.counters.shard_compiles == 0
        assert live.counters.full_compiles == 0


def test_explicit_evict_roundtrip(manager):
    manager.create_tenant("cold", ATTRIBUTES)
    manager.append("cold", rows(25))
    assert manager.evict("cold") is True
    assert manager.evict("cold") is False
    assert manager.resident() == ()
    # Appends after eviction lazily re-open and keep growing the dataset.
    manager.append("cold", rows(5, start=25))
    assert wait_until(lambda: manager.snapshot("cold").num_rows == 30)


def test_eviction_checkpoints_off_the_request_path(tmp_path):
    with TenantManager(tmp_path / "serve", max_tenants=1) as manager:
        manager.create_tenant("cold", ATTRIBUTES)
        manager.append("cold", rows(30))
        cold = manager._resolve("cold")
        release = threading.Event()
        checkpoint = cold._durable.checkpoint

        def wedged():
            release.wait(timeout=30.0)
            return checkpoint()

        cold._durable.checkpoint = wedged
        reopened = {}
        reader = threading.Thread(
            target=lambda: reopened.update(snapshot=manager.snapshot("cold")),
            daemon=True,
        )
        try:
            # Creating "hot" evicts "cold", whose writer is wedged in its
            # checkpoint; the create does not wait for it.
            started = time.monotonic()
            manager.create_tenant("hot", ATTRIBUTES)
            assert time.monotonic() - started < 10.0
            assert manager.resident() == ("hot",)
            assert not cold.stopped
            # Re-opening "cold" waits until that checkpoint has landed.
            reader.start()
            reader.join(timeout=0.3)
            assert reader.is_alive()
        finally:
            release.set()
        reader.join(timeout=30.0)
        assert not reader.is_alive()
        assert cold.stopped
        assert reopened["snapshot"].num_rows == 30
        assert manager.resident() == ("cold",)


def test_failed_eviction_checkpoint_still_closes_the_log(tmp_path, monkeypatch):
    raised: list[BaseException] = []
    monkeypatch.setattr(
        threading, "excepthook", lambda args: raised.append(args.exc_value)
    )
    with TenantManager(tmp_path / "serve", max_tenants=1) as manager:
        manager.create_tenant("cold", ATTRIBUTES)
        acknowledged = manager.append("cold", rows(3))
        cold = manager._resolve("cold")
        durable = cold._durable

        def disk_full():
            raise OSError(errno.ENOSPC, "No space left on device")

        durable.checkpoint = disk_full
        manager.create_tenant("hot", ATTRIBUTES)  # evicts "cold" (the LRU)
        cold.join()
        # The checkpoint's error still ends the writer, but the log is
        # released rather than left open until garbage collection.
        assert [type(error) for error in raised] == [OSError]
        assert durable._closed
        # The rows the checkpoint missed replay from the log on re-open.
        assert manager.snapshot("cold").num_rows == acknowledged


def test_eviction_folds_the_checkpoint_into_a_fresh_base(tmp_path):
    directory = tmp_path / "serve" / "t"
    with TenantManager(tmp_path / "serve") as manager:
        manager.create_tenant("t", ATTRIBUTES)
        for start in range(0, 30, 10):
            manager.append("t", rows(10, start=start))
            assert manager.evict("t")
            manifest = read_manifest(directory)
            # No delta chain and an empty log tail: a re-open reads one
            # base and replays nothing.
            assert manifest.deltas == []
            assert manifest.num_rows == start + 10
            assert manifest.wal_tail == manifest.base_wal
        assert manager.snapshot("t").num_rows == 30
        assert manager._resolve("t")._durable.counters.recovered_rows == 0


def test_rejected_batch_surfaces_typed_error_and_mutates_nothing(manager):
    manager.create_tenant("strict", ATTRIBUTES)
    manager.append("strict", rows(20))
    assert wait_until(lambda: manager.snapshot("strict").num_rows == 20)
    version = manager.snapshot("strict").version
    with pytest.raises(EngineError):
        manager.append("strict", [["only-two", "values"]])
    assert manager.snapshot("strict").num_rows == 20
    assert manager.snapshot("strict").version == version
    # The tenant stays healthy for good batches afterwards.
    manager.append("strict", rows(5, start=20))
    assert wait_until(lambda: manager.snapshot("strict").num_rows == 25)


def test_unknown_query_operation(manager):
    manager.create_tenant("ops", ATTRIBUTES)
    with pytest.raises(ServeError):
        manager.query("ops", "drop_tables")


# ------------------------------------------------------- admission control
def test_overloaded_queue_sheds_appends_without_enqueueing(tmp_path):
    """With the writer wedged and the queue at ``max_queue_depth``, further
    appends raise :class:`TenantOverloadedError` at the door — nothing is
    enqueued, the shed counter moves, and draining the wedge restores
    service with exactly the admitted batches applied."""
    with TenantManager(tmp_path / "serve", max_queue_depth=2) as manager:
        manager.create_tenant("busy", ATTRIBUTES)
        manager.append("busy", rows(10))
        assert wait_until(lambda: manager.snapshot("busy").num_rows == 10)

        tenant = manager._resolve("busy")
        release = threading.Event()
        entered = threading.Event()
        original = tenant._durable.append_rows

        def wedged(batch):
            entered.set()
            release.wait(timeout=30.0)
            return original(batch)

        tenant._durable.append_rows = wedged
        writers = []

        def spawn(start: int) -> None:
            writer = threading.Thread(
                target=manager.append,
                args=("busy", rows(10, start=start)),
                daemon=True,
            )
            writer.start()
            writers.append(writer)

        try:
            # One batch wedges *inside* the writer thread (confirmed via the
            # event, so it no longer occupies a queue slot); two more then
            # fill the queue to its depth limit.
            spawn(10)
            assert entered.wait(timeout=10.0)
            spawn(20)
            spawn(30)
            assert wait_until(lambda: tenant.queue_depth >= 2)

            before = tenant.queue_depth
            with pytest.raises(TenantOverloadedError):
                manager.append("busy", rows(10, start=40), timeout=5.0)
            assert tenant.queue_depth == before  # nothing was enqueued
            assert manager.stats().appends_shed == 1
        finally:
            release.set()
            for writer in writers:
                writer.join(timeout=30.0)
        tenant._durable.append_rows = original
        # Exactly the three admitted batches landed, never the shed one.
        assert wait_until(lambda: manager.snapshot("busy").num_rows == 40)


def test_queue_depth_validation(tmp_path):
    with pytest.raises(ServeError):
        TenantManager(tmp_path / "serve", max_queue_depth=0)


def test_stats_report_in_flight_and_shed_counters(manager):
    manager.create_tenant("counted", ATTRIBUTES)
    manager.append("counted", rows(10))
    stats = manager.stats()
    assert stats.in_flight_queries == 0
    assert stats.appends_shed == 0
    manager.query("counted", "similarity", first="sector", second="trend")
    assert manager.stats().in_flight_queries == 0  # back to idle after
