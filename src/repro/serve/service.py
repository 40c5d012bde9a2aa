"""Transport-agnostic serving core: tenants, writer queues, snapshot publish.

The serving tier turns the single-process library into a concurrent,
multi-tenant query service without giving up any of the engine's exactness
guarantees.  The design is a classic single-writer/many-readers split:

* **One writer thread per tenant** owns the tenant's live
  :class:`~repro.storage.DurableEngine`.  Appends are enqueued; the writer
  drains the queue, logs + ingests each batch, and then *publishes*.
  An append is acknowledged only after the publish that holds its batch,
  so an acknowledged append is visible to every later read.
* **Publishing** builds an immutable :class:`EngineSnapshot` — a quiesced
  clone of the live engine (``from_snapshot(to_snapshot())``, the exact
  round-trip the recovery tests pin bit-identical) that *adopts* the
  writer's compiled index shards (zero shard compiles; shard arrays are
  immutable after compile, so sharing them across engines is safe) — and
  installs it with a single attribute assignment.  Under CPython that
  reference swap is atomic, so readers see either the old version or the
  new one, never a torn state.
* **Readers never lock**: a query dereferences the current snapshot and
  runs entirely against that frozen engine.  A reader holding a snapshot
  keeps getting bit-identical answers at its version no matter how many
  appends and publishes happen concurrently — and no query ever waits on
  the writer queue.

Multi-tenancy stacks on top: a :class:`TenantManager` hosts many tenants
keyed by dataset id, LRU-evicts cold ones to their durable directories
(checkpoint-on-evict, folded into a fresh base), and lazily re-opens them
on next touch — re-opening reads that one base and adopts its shard
sidecar, so it replays no delta chain and compiles nothing.

Everything here is stdlib-only; the HTTP transport lives in
:mod:`repro.serve.http`.
"""

from __future__ import annotations

import queue
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro import obs
from repro.core.config import BuildConfig
from repro.engine import AssociationEngine
from repro.exceptions import (
    ServeError,
    TenantExistsError,
    TenantNotFoundError,
    TenantOverloadedError,
    TenantUnavailableError,
)
from repro.storage import CompactionPolicy, DurableEngine

__all__ = ["EngineSnapshot", "TenantManager", "TenantStats"]

_OBS_PUBLISH = obs.timer("serve.publish", "snapshot clone + atomic reference swap")
_OBS_APPEND = obs.timer(
    "serve.append", "append enqueue to acknowledgement, once durable and published"
)
_OBS_QUERY = {
    name: obs.timer(f"serve.query.{name}", f"{name} served from a tenant snapshot")
    for name in ("similarity", "neighbors", "clusters", "dominators", "classify")
}
_OBS_PUBLISHES = obs.counter("serve.publishes", "snapshot versions published")
_OBS_EVICTIONS = obs.counter("serve.evictions", "tenants LRU-evicted to durable dirs")
_OBS_OPENS = obs.counter("serve.tenant_opens", "tenants opened or re-opened")
_OBS_TENANTS = obs.gauge("serve.tenants", "tenants currently resident")
_OBS_QUEUE_DEPTH = obs.gauge("serve.queue_depth", "append batches queued, all tenants")
_OBS_IN_FLIGHT = obs.gauge("serve.in_flight", "queries currently executing")
_OBS_SHED = obs.counter("serve.appends_shed", "appends rejected by admission control")

#: Dataset ids double as durable directory names, so they are restricted
#: to a filesystem-safe alphabet (and may not start with a dot).
_DATASET_ID = re.compile(r"^[A-Za-z0-9_-][A-Za-z0-9._-]{0,127}$")

#: Publish at least every this many applied batches even when the append
#: queue never drains, so readers' staleness stays bounded under a
#: saturating writer.
_PUBLISH_EVERY_BATCHES = 64

#: The default compaction policy of a tenant's durable engine: every
#: checkpoint that changed anything folds into a fresh base.  A tenant
#: checkpoints only on its way out (eviction, shutdown), and its next
#: touch re-opens it on the request path, under the manager's lock.  A
#: re-open's cost grows with the delta chain, since each link is one more
#: shard archive to read and one more count archive to merge at the first
#: publish: for a 250-row, 12-attribute tenant on a 2-vCPU VM it took
#: about 8 ms from a fresh base and 38 ms behind a 7-delta chain, which
#: made request latency depend on each tenant's eviction history.
_TENANT_POLICY = CompactionPolicy(max_deltas=0)


class _TenantClosedError(ServeError):
    """The tenant shut down between resolve and enqueue; re-resolve retries."""


@dataclass(frozen=True)
class EngineSnapshot:
    """One published, immutable engine version.

    ``engine`` is a quiesced clone: every head refreshed, every payload
    materialized, nothing dirty — so queries against it never mutate
    anything but its memo cache (benign: identical recomputed values).
    Hold a snapshot as long as you like; later publishes and evictions
    never touch it.
    """

    dataset_id: str
    version: int
    num_rows: int
    engine: AssociationEngine
    published_unix: float


@dataclass(frozen=True)
class TenantStats:
    """Operational summary of one resident tenant."""

    dataset_id: str
    version: int
    num_rows: int
    num_attributes: int
    queue_depth: int
    publishes: int
    resident: bool


class _CloseOp:
    """Writer-queue sentinel: checkpoint (optionally) and shut down."""

    __slots__ = ("checkpoint",)

    def __init__(self, checkpoint: bool) -> None:
        self.checkpoint = checkpoint


class _AppendOp:
    """One queued append batch plus the caller's completion rendezvous."""

    __slots__ = ("rows", "done", "count", "error")

    def __init__(self, rows: Sequence[Any]) -> None:
        self.rows = rows
        self.done = threading.Event()
        self.count = 0
        self.error: BaseException | None = None


class _Tenant:
    """One dataset: a durable engine, its writer thread, and its snapshot.

    Everything that mutates engine state happens on the writer thread;
    the only cross-thread surface is the append queue (in) and the
    ``snapshot`` attribute (out, swapped atomically).
    """

    def __init__(
        self,
        dataset_id: str,
        durable: DurableEngine,
        max_queue_depth: int | None = None,
    ) -> None:
        self.dataset_id = dataset_id
        self._durable = durable
        self._max_queue_depth = max_queue_depth
        self._queue: queue.Queue[_AppendOp | _CloseOp] = queue.Queue()
        self._gate = threading.Lock()  # serializes enqueue vs close
        self._closed = False
        self._publishes = 0
        self.snapshot: EngineSnapshot = self._build_snapshot()
        self._thread = threading.Thread(
            target=self._writer_loop, name=f"serve-writer-{dataset_id}", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------- reader side
    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def publishes(self) -> int:
        return self._publishes

    def append(self, rows: Sequence[Any], timeout: float | None = None) -> int:
        """Enqueue a batch for the writer; block until it is durable and published.

        Returns the number of rows appended once a published snapshot
        holds them; re-raises the writer's typed error (schema mismatch,
        unframeable values) on a rejected batch, and
        :class:`~repro.exceptions.TenantUnavailableError` when the batch
        is logged but publishing it failed.
        Raises :class:`~repro.exceptions.TenantOverloadedError` — without
        enqueueing anything — when the writer queue already holds
        ``max_queue_depth`` batches, so a saturating client sheds load at
        the door instead of growing the queue without bound.
        """
        op = _AppendOp(rows)
        with self._gate:
            if self._closed:
                raise _TenantClosedError(f"tenant {self.dataset_id!r} is closed")
            if (
                self._max_queue_depth is not None
                and self._queue.qsize() >= self._max_queue_depth
            ):
                _OBS_SHED.inc()
                raise TenantOverloadedError(
                    f"tenant {self.dataset_id!r} append queue is full "
                    f"({self._max_queue_depth} batches queued); retry later"
                )
            self._queue.put(op)
            _OBS_QUEUE_DEPTH.add(1)
        with _OBS_APPEND.time(dataset=self.dataset_id):
            if not op.done.wait(timeout):
                raise ServeError(
                    f"append to tenant {self.dataset_id!r} timed out after {timeout}s"
                )
        if op.error is not None:
            raise op.error
        return op.count

    def close(self, *, checkpoint: bool = True) -> None:
        """Tell the writer to drain queued appends, then close the engine.

        Returns at once; the writer checkpoints and exits in the
        background, and :meth:`join` waits for it.
        """
        with self._gate:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_CloseOp(checkpoint))

    def join(self, timeout: float = 30.0) -> None:
        """Wait until the closed tenant's writer has exited."""
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ServeError(f"tenant {self.dataset_id!r} writer failed to stop")

    @property
    def stopped(self) -> bool:
        return not self._thread.is_alive()

    def stats(self) -> TenantStats:
        snapshot = self.snapshot
        return TenantStats(
            dataset_id=self.dataset_id,
            version=snapshot.version,
            num_rows=snapshot.num_rows,
            num_attributes=len(snapshot.engine.attributes),
            queue_depth=self.queue_depth,
            publishes=self._publishes,
            resident=True,
        )

    # ------------------------------------------------------------- writer side
    def _writer_loop(self) -> None:
        # Applied batches whose callers wait for the publish that holds
        # their rows; batches drained together share one publish.
        waiting: list[_AppendOp] = []
        while True:
            op = self._queue.get()
            if isinstance(op, _CloseOp):
                # Every caller of close() has already taken the tenant out
                # of the manager's table, so the next read re-opens it from
                # the durable directory, these rows included.
                for applied in waiting:
                    applied.done.set()
                self._shutdown(op)
                return
            _OBS_QUEUE_DEPTH.add(-1)
            try:
                op.count = self._durable.append_rows(op.rows)
            except BaseException as error:  # surfaced to the caller, not lost
                op.error = error
            if op.count:
                waiting.append(op)
            else:
                op.done.set()  # rejected, or no rows to publish
            if waiting and (
                self._queue.empty() or len(waiting) >= _PUBLISH_EVERY_BATCHES
            ):
                self._publish_waiting(waiting)
                waiting = []

    def _publish_waiting(self, waiting: list[_AppendOp]) -> None:
        """Publish a snapshot holding ``waiting``'s rows, then acknowledge them.

        A publish that raises fails them at once with
        :class:`~repro.exceptions.TenantUnavailableError` and leaves the
        writer running, so the next applied batch publishes again.
        """
        try:
            self._publish()
        except Exception as error:
            for op in waiting:
                op.error = TenantUnavailableError(
                    f"tenant {self.dataset_id!r}: the appended rows are logged "
                    "durably but not yet visible to reads; publishing the "
                    f"snapshot failed ({type(error).__name__}: {error})"
                )
                op.error.__cause__ = error
        for op in waiting:
            op.done.set()

    def _shutdown(self, op: _CloseOp) -> None:
        try:
            try:
                if op.checkpoint:
                    self._durable.checkpoint()
            finally:
                # A failed checkpoint still releases the log: the rows it
                # missed are durable there and replay on the next open.
                self._durable.close()
        finally:
            # Fail anything that raced into the queue behind the sentinel.
            while True:
                try:
                    stale = self._queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(stale, _AppendOp):
                    _OBS_QUEUE_DEPTH.add(-1)
                    stale.error = _TenantClosedError(
                        f"tenant {self.dataset_id!r} closed before the append ran"
                    )
                    stale.done.set()

    def _build_snapshot(self) -> EngineSnapshot:
        """Clone the live engine into an immutable, quiesced reader engine.

        ``to_snapshot``/``from_snapshot`` is the storage layer's
        recovery-tested round-trip (bit-identical by the crash suite), and
        ``from_snapshot`` leaves nothing dirty — the clone never refreshes,
        so concurrent readers only ever race on its memo cache, where both
        sides compute identical values.  The writer's compiled shards are
        adopted as-is (their arrays are immutable after compile; the live
        engine replaces, never mutates, them) and the stitched view is
        primed here, single-threaded, so readers find a fresh index.
        """
        live = self._durable.engine
        with _OBS_PUBLISH.time(dataset=self.dataset_id):
            reader = AssociationEngine.from_snapshot(live.to_snapshot())
            shards = [live.compiled_shard(head) for head in live.head_attributes]
            reader.adopt_compiled_shards(shards)
            reader.index  # adopt + stitch now, before readers can race
            self._publishes += 1
            snapshot = EngineSnapshot(
                dataset_id=self.dataset_id,
                version=self._publishes,
                num_rows=reader.num_observations,
                engine=reader,
                published_unix=time.time(),
            )
        _OBS_PUBLISHES.inc()
        return snapshot

    def _publish(self) -> None:
        self.snapshot = self._build_snapshot()  # atomic reference swap


@dataclass(frozen=True)
class ManagerStats:
    """Operational summary of the whole tenant manager."""

    resident_tenants: int
    max_tenants: int
    known_datasets: int
    evictions: int
    in_flight_queries: int = 0
    appends_shed: int = 0
    tenants: dict[str, TenantStats] = field(default_factory=dict)


class TenantManager:
    """Many independent engines keyed by dataset id, under one root dir.

    Each tenant's durable directory is ``root/<dataset_id>``.  At most
    ``max_tenants`` tenants are resident at a time; the least recently
    *used* one is evicted when a new tenant would exceed the limit —
    eviction checkpoints to the durable directory and closes the engine,
    and the next touch re-opens it with zero shard compiles.  ``policy``
    defaults to folding every checkpoint into a fresh base, so a re-open
    reads one base and no delta chain (see :data:`_TENANT_POLICY`).
    ``max_queue_depth`` (``None`` = unbounded) caps every tenant's append
    queue: an append that finds the queue full is shed with
    :class:`~repro.exceptions.TenantOverloadedError` instead of queued.

    Thread safety: the manager's lock only guards the tenant table
    (resolve, insert, evict).  Queries run against a tenant's published
    snapshot after the table lookup, entirely outside the lock — so no
    query ever blocks on an append, an eviction, or another query.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_tenants: int = 8,
        max_queue_depth: int | None = None,
        default_config: BuildConfig | None = None,
        policy: CompactionPolicy | None = None,
        sync: bool = False,
        **storage_kwargs: Any,
    ) -> None:
        if max_tenants < 1:
            raise ServeError(f"max_tenants must be positive, got {max_tenants}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ServeError(
                f"max_queue_depth must be positive or None, got {max_queue_depth}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_tenants = max_tenants
        self.max_queue_depth = max_queue_depth
        self.default_config = default_config
        self._storage_kwargs = dict(storage_kwargs, sync=sync)
        self._policy = _TENANT_POLICY if policy is None else policy
        self._lock = threading.RLock()
        self._tenants: OrderedDict[str, _Tenant] = OrderedDict()
        # Evicted tenants whose writers may still be checkpointing.
        self._closing: dict[str, _Tenant] = {}
        self._evictions = 0
        self._appends_shed = 0
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    @staticmethod
    def _require_dataset_id(dataset_id: str) -> str:
        if not isinstance(dataset_id, str) or not _DATASET_ID.match(dataset_id):
            raise ServeError(
                f"invalid dataset id {dataset_id!r}: use 1-128 letters, digits, "
                "'.', '_' or '-' (not starting with '.')"
            )
        return dataset_id

    def _directory(self, dataset_id: str) -> Path:
        return self.root / dataset_id

    def create_tenant(
        self,
        dataset_id: str,
        attributes: Sequence[str],
        *,
        config: BuildConfig | None = None,
        heads: Iterable[str] | None = None,
        values: Iterable[Any] = (),
    ) -> TenantStats:
        """Initialize a new dataset under the root and make it resident."""
        self._require_dataset_id(dataset_id)
        self._require_open()
        with self._lock:
            directory = self._directory(dataset_id)
            if dataset_id in self._tenants or (directory / "MANIFEST.json").exists():
                raise TenantExistsError(
                    f"dataset {dataset_id!r} already exists under {self.root}"
                )
            durable = DurableEngine.create(
                directory,
                attributes=attributes,
                config=config or self.default_config,
                heads=heads,
                values=values,
                policy=self._policy,
                **self._storage_kwargs,
            )
            tenant = self._install(dataset_id, durable)
        return tenant.stats()

    def _install(self, dataset_id: str, durable: DurableEngine) -> _Tenant:
        """Insert a resident tenant (lock held), evicting LRU overflow."""
        tenant = _Tenant(dataset_id, durable, max_queue_depth=self.max_queue_depth)
        self._tenants[dataset_id] = tenant
        self._tenants.move_to_end(dataset_id)
        _OBS_OPENS.inc()
        self._closing = {
            closing_id: closing
            for closing_id, closing in self._closing.items()
            if not closing.stopped
        }
        while len(self._tenants) > self.max_tenants:
            cold_id, cold = self._tenants.popitem(last=False)
            # The cold tenant checkpoints on its own writer thread, off
            # this request's path; re-opening it waits for that.
            cold.close(checkpoint=True)
            self._closing[cold_id] = cold
            self._evictions += 1
            _OBS_EVICTIONS.inc()
        _OBS_TENANTS.set(len(self._tenants))
        return tenant

    def _resolve(self, dataset_id: str) -> _Tenant:
        """The resident tenant for ``dataset_id``, re-opening if evicted."""
        self._require_dataset_id(dataset_id)
        self._require_open()
        with self._lock:
            tenant = self._tenants.get(dataset_id)
            if tenant is not None:
                self._tenants.move_to_end(dataset_id)
                return tenant
            directory = self._directory(dataset_id)
            if not (directory / "MANIFEST.json").exists():
                raise TenantNotFoundError(
                    f"no dataset {dataset_id!r} under {self.root}"
                )
            closing = self._closing.pop(dataset_id, None)
            if closing is not None:
                closing.join()
            durable = DurableEngine.open(
                directory, policy=self._policy, **self._storage_kwargs
            )
            return self._install(dataset_id, durable)

    def evict(self, dataset_id: str) -> bool:
        """Checkpoint and close one tenant now; True if it was resident."""
        self._require_dataset_id(dataset_id)
        with self._lock:
            tenant = self._tenants.pop(dataset_id, None)
            if tenant is None:
                return False
            tenant.close(checkpoint=True)
            tenant.join()
            self._evictions += 1
            _OBS_EVICTIONS.inc()
            _OBS_TENANTS.set(len(self._tenants))
        return True

    def close(self) -> None:
        """Checkpoint and close every resident tenant."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            tenants = [*self._tenants.values(), *self._closing.values()]
            self._tenants.clear()
            self._closing.clear()
            _OBS_TENANTS.set(0)
        for tenant in tenants:
            tenant.close(checkpoint=True)
            tenant.join()

    def _require_open(self) -> None:
        if self._closed:
            raise ServeError("tenant manager is closed")

    def __enter__(self) -> "TenantManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------- data plane
    def snapshot(self, dataset_id: str) -> EngineSnapshot:
        """The tenant's current published snapshot (atomic read, no lock).

        Hold it to query one consistent version across many calls; the
        writer swapping in a newer version never disturbs a held one.
        """
        return self._resolve(dataset_id).snapshot

    def append(
        self, dataset_id: str, rows: Sequence[Any], timeout: float | None = 60.0
    ) -> int:
        """Durably append a row batch via the tenant's writer queue.

        Blocks until the batch is durable and published: once this
        returns, every later read of the tenant sees the rows.
        Raises :class:`~repro.exceptions.TenantUnavailableError` (mapped
        to HTTP 503) when the rows were logged but publishing them failed.
        Raises :class:`~repro.exceptions.TenantOverloadedError` (mapped to
        HTTP 503 by the transports) when the tenant's queue is at its
        configured ``max_queue_depth``; nothing is enqueued in that case.
        """
        try:
            try:
                return self._resolve(dataset_id).append(rows, timeout=timeout)
            except _TenantClosedError:
                # The tenant was evicted between resolve and enqueue (the
                # queued op never ran); a re-resolve re-opens it from its
                # durable dir.
                return self._resolve(dataset_id).append(rows, timeout=timeout)
        except TenantOverloadedError:
            with self._in_flight_lock:
                self._appends_shed += 1
            raise

    def query(
        self, dataset_id: str, operation: str, /, **params: Any
    ) -> tuple[Any, EngineSnapshot]:
        """Run one read operation against the current snapshot.

        Returns ``(result, snapshot)`` so transports can report the
        version the answer was computed at.  ``operation`` is one of
        ``similarity``, ``neighbors``, ``clusters``, ``dominators``,
        ``classify``.
        """
        timer = _OBS_QUERY.get(operation)
        if timer is None:
            raise ServeError(f"unknown query operation {operation!r}")
        snapshot = self.snapshot(dataset_id)
        with self._in_flight_lock:
            self._in_flight += 1
            _OBS_IN_FLIGHT.set(self._in_flight)
        try:
            with timer.time(dataset=dataset_id):
                result = getattr(snapshot.engine, operation)(**params)
        finally:
            with self._in_flight_lock:
                self._in_flight -= 1
                _OBS_IN_FLIGHT.set(self._in_flight)
        return result, snapshot

    def similarity(self, dataset_id: str, first: str, second: str) -> float:
        result, _ = self.query(dataset_id, "similarity", first=first, second=second)
        return result

    def classify(
        self,
        dataset_id: str,
        evidence: Mapping[str, Any],
        targets: Iterable[str] | None = None,
    ):
        result, _ = self.query(
            dataset_id, "classify", evidence=evidence, targets=targets
        )
        return result

    # ------------------------------------------------------------- introspection
    def resident(self) -> tuple[str, ...]:
        """Dataset ids currently resident, least recently used first."""
        with self._lock:
            return tuple(self._tenants)

    def known_datasets(self) -> tuple[str, ...]:
        """Every dataset under the root (resident or durable), sorted."""
        known = {path.parent.name for path in self.root.glob("*/MANIFEST.json")}
        with self._lock:
            known.update(self._tenants)
        return tuple(sorted(known))

    def tenant_stats(self, dataset_id: str) -> TenantStats:
        """Stats for one dataset (resident or durable-only)."""
        self._require_dataset_id(dataset_id)
        with self._lock:
            tenant = self._tenants.get(dataset_id)
            if tenant is not None:
                return tenant.stats()
        directory = self._directory(dataset_id)
        if not (directory / "MANIFEST.json").exists():
            raise TenantNotFoundError(f"no dataset {dataset_id!r} under {self.root}")
        return TenantStats(
            dataset_id=dataset_id,
            version=0,
            num_rows=-1,
            num_attributes=-1,
            queue_depth=0,
            publishes=0,
            resident=False,
        )

    def stats(self) -> ManagerStats:
        """Manager-wide operational summary."""
        with self._lock:
            tenants = {t.dataset_id: t.stats() for t in self._tenants.values()}
            with self._in_flight_lock:
                in_flight = self._in_flight
                shed = self._appends_shed
            return ManagerStats(
                resident_tenants=len(tenants),
                max_tenants=self.max_tenants,
                known_datasets=len(self.known_datasets()),
                evictions=self._evictions,
                in_flight_queries=in_flight,
                appends_shed=shed,
                tenants=tenants,
            )
