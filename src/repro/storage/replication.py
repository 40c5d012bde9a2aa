"""WAL-shipped read replicas: follower mode over a leader's storage directory.

The write-ahead log is already a segmented, CRC-framed, versioned binary
replication log — this module uses it as one.  A
:class:`ReplicaEngine` opens the *leader's* durability directory without
taking any write path:

1. **Bootstrap** — read the committed manifest and restore exactly what
   leader recovery restores (base snapshot → delta-shard overlay →
   staged count-state archives: zero shard compiles on the happy path,
   and the first γ-refresh is O(rows since each state was persisted)),
   then apply the log tail from the manifest's base position.
2. **Tail** — :meth:`ReplicaEngine.poll` reads new complete frames
   through :meth:`WriteAheadLog.tail_records
   <repro.storage.wal.WriteAheadLog.tail_records>` (a read-only open
   that never truncate-heals or fsyncs the leader's files) and applies
   row batches through the exact append path the leader used, so a
   follower at the same watermark answers every query layer
   bit-identically to the leader.
3. **Serve** — queries run between polls at snapshot isolation: a poll
   applies whole frames atomically, and the engine's version-stamped
   caches make each answer a pure function of the applied prefix.

Torn or still-growing tails are "wait and re-poll", never corruption; a
reader racing the leader's ``roll()``/compaction gets a typed
:class:`~repro.exceptions.StorageRaceError` and retries, escalating to a
full re-bootstrap (itself O(delta) from the latest manifest) only when
the race persists — e.g. the leader compacted past the follower's
position because its lease had expired.

**Leases and retention.**  Each follower maintains a small JSON lease
under ``<leader dir>/replicas/`` recording the oldest log position it
still needs.  Leader compaction (:meth:`DurableEngine.compact
<repro.storage.durable.DurableEngine.compact>`) consults the fresh
leases and holds back segment deletion to the oldest leased position, so
a live follower keeps tailing straight across a compaction.  Leases
older than the TTL stop pinning the log — a crashed follower cannot
retain segments forever; it re-bootstraps when it returns.

Observability: ``replica.lag_rows`` / ``replica.lag_bytes`` gauges,
``replica.apply_batch`` timer, ``replica.bootstrap`` timer, poll /
applied-row / re-bootstrap counters, and a ``replica.catch_up`` trace
span around every catch-up (enable with :func:`repro.obs.enable`).
"""

from __future__ import annotations

import json
import os
import time
import uuid
import weakref
from pathlib import Path
from typing import Any, NamedTuple

from repro import obs
from repro.engine.engine import AssociationEngine
from repro.exceptions import StorageError, StorageRaceError
from repro.hypergraph.io import atomic_write_text
from repro.storage.deltas import StorageManifest, read_manifest
from repro.storage.durable import (
    _WAL_DIRNAME,
    apply_wal_record,
    make_counts_loader,
    restore_engine_state,
)
from repro.storage.wal import WalPosition, WriteAheadLog

__all__ = [
    "DEFAULT_LEASE_TTL_SECONDS",
    "ReplicaEngine",
    "ReplicaLag",
    "list_follower_leases",
    "remove_follower_lease",
    "retained_segment_floor",
    "write_follower_lease",
]

_REPLICAS_DIRNAME = "replicas"

#: Leases not renewed within this window stop pinning log segments: a
#: crashed follower must re-bootstrap instead of retaining the log forever.
DEFAULT_LEASE_TTL_SECONDS = 300.0

#: Consecutive raced polls before the follower gives up retrying in place
#: and re-bootstraps from the latest manifest.
_RACE_STRIKES_BEFORE_REBOOTSTRAP = 3

#: Bootstrap attempts against a leader that compacts continuously.
_BOOTSTRAP_ATTEMPTS = 5

# Observability handles (no-ops until ``repro.obs.enable``).
_OBS_LAG_ROWS = obs.gauge(
    "replica.lag_rows", "rows the leader has checkpointed beyond this follower"
)
_OBS_LAG_BYTES = obs.gauge(
    "replica.lag_bytes", "log bytes written beyond this follower's position"
)
_OBS_APPLY = obs.timer("replica.apply_batch", "one tailed WAL frame applied")
_OBS_BOOTSTRAP = obs.timer(
    "replica.bootstrap", "one follower bootstrap (manifest restore + tail apply)"
)
_OBS_POLLS = obs.counter("replica.polls", "tail polls issued")
_OBS_APPLIED_ROWS = obs.counter("replica.applied_rows", "rows applied from the tail")
_OBS_REBOOTSTRAPS = obs.counter(
    "replica.rebootstraps", "full re-bootstraps after a persistent race"
)


class ReplicaLag(NamedTuple):
    """How far a follower trails its leader.

    ``rows`` compares against the leader's last *checkpointed* row count
    (the manifest's; the live leader may be slightly ahead of its own
    manifest), floored at zero.  ``bytes`` counts log bytes at or past the
    follower's position — including a torn or still-growing tail frame, so
    a caught-up follower under an active writer may read a small nonzero
    value.
    """

    rows: int
    bytes: int


def _lease_path(directory: Path, follower_id: str) -> Path:
    return directory / _REPLICAS_DIRNAME / f"{follower_id}.json"


def write_follower_lease(
    directory: str | Path, follower_id: str, position: WalPosition
) -> None:
    """Atomically record the oldest log position ``follower_id`` still needs."""
    directory = Path(directory)
    (directory / _REPLICAS_DIRNAME).mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        _lease_path(directory, follower_id),
        json.dumps(
            {
                "follower_id": follower_id,
                "segment": position.segment,
                "offset": position.offset,
                "updated_unix": time.time(),
            },
            separators=(",", ":"),
        ),
    )


def remove_follower_lease(directory: str | Path, follower_id: str) -> None:
    """Drop a follower's lease (it no longer pins any segment)."""
    _lease_path(Path(directory), follower_id).unlink(missing_ok=True)


def list_follower_leases(
    directory: str | Path, *, ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS
) -> list[dict[str, Any]]:
    """Parsable leases under ``<directory>/replicas/``, freshest first.

    Each entry carries ``follower_id``, ``segment``, ``offset``,
    ``age_seconds``, and ``fresh`` (within the TTL).  Malformed or
    vanished lease files are skipped — a half-written lease must never
    break the leader.
    """
    replicas = Path(directory) / _REPLICAS_DIRNAME
    now = time.time()
    leases: list[dict[str, Any]] = []
    if not replicas.is_dir():
        return leases
    for path in sorted(replicas.glob("*.json")):
        try:
            data = json.loads(path.read_text())
            segment = int(data["segment"])
            offset = int(data["offset"])
            updated = float(data["updated_unix"])
        except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError):
            continue
        age = max(0.0, now - updated)
        leases.append(
            {
                "follower_id": str(data.get("follower_id", path.stem)),
                "segment": segment,
                "offset": offset,
                "age_seconds": age,
                "fresh": age <= ttl_seconds,
            }
        )
    leases.sort(key=lambda lease: lease["age_seconds"])
    return leases


def retained_segment_floor(
    directory: str | Path, *, ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS
) -> int | None:
    """The oldest segment a fresh follower lease still needs, or ``None``.

    Leader compaction calls this before ``delete_segments_before``: every
    segment at or past the returned floor stays on disk so registered
    followers keep tailing across the compaction.  Stale leases (older
    than ``ttl_seconds``) do not count.
    """
    fresh = [
        lease["segment"]
        for lease in list_follower_leases(directory, ttl_seconds=ttl_seconds)
        if lease["fresh"]
    ]
    return min(fresh) if fresh else None


class ReplicaEngine:
    """A read-only follower serving queries from a leader's directory.

    Construct via :meth:`open`.  Every engine query (``similarity``,
    ``clusters``, ``dominators``, ``classify``, ``stats``, properties, …)
    delegates to the restored :class:`~repro.engine.AssociationEngine`;
    the write surface (``append_rows``, ``checkpoint``, ``compact``,
    ``flush``) raises :class:`~repro.exceptions.StorageError` — followers
    never touch the leader's files beyond their own lease.

    Call :meth:`poll` to apply newly shipped frames (or :meth:`catch_up`
    to drain until idle); queries between polls run at snapshot isolation
    on the applied prefix.
    """

    def __init__(
        self,
        directory: Path,
        *,
        follower_id: str,
        lease_ttl_seconds: float,
        segment_bytes: int,
    ) -> None:
        self._directory = directory
        self._follower_id = follower_id
        self._lease_ttl_seconds = lease_ttl_seconds
        self._segment_bytes = segment_bytes
        self._engine: AssociationEngine | None = None
        self._manifest: StorageManifest | None = None
        self._wal: WriteAheadLog | None = None
        self._position = WalPosition(1, 0)
        self._closed = False
        self._race_strikes = 0
        self._polls = 0
        self._applied_batches = 0
        self._applied_rows = 0
        self._bootstrap_rows = 0
        self._rebootstraps = 0
        self._count_states_restored = 0
        self._growth_scans = 0

    # ------------------------------------------------------------------ lifecycle
    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        follower_id: str | None = None,
        lease_ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS,
        segment_bytes: int = 4 * 1024 * 1024,
    ) -> "ReplicaEngine":
        """Bootstrap a follower from the leader directory's latest manifest.

        ``follower_id`` names the lease file under ``replicas/`` (a fresh
        unique id by default; pass a stable one to reuse a lease across
        restarts).  Restart catch-up is O(delta): the manifest's base +
        deltas + count states restore without a single shard compile or
        count rebuild, and only the log tail past the base replays.
        """
        directory = Path(directory)
        if follower_id is None:
            follower_id = f"follower-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        replica = cls(
            directory,
            follower_id=follower_id,
            lease_ttl_seconds=lease_ttl_seconds,
            segment_bytes=segment_bytes,
        )
        with _OBS_BOOTSTRAP.time():
            replica._bootstrap()
        return replica

    def _bootstrap(self) -> None:
        """(Re)build the engine from the latest manifest + log tail.

        Retries through :class:`~repro.exceptions.StorageRaceError` a
        bounded number of times — a leader compacting mid-bootstrap moves
        the manifest underneath us, and the fix is simply to start over
        from the newer (smaller-tail) manifest.
        """
        last_race: StorageRaceError | None = None
        for _attempt in range(_BOOTSTRAP_ATTEMPTS):
            manifest = read_manifest(self._directory)
            # Lease the base position *before* reading anything the leader
            # could compact away, shrinking the unprotected window.
            write_follower_lease(self._directory, self._follower_id, manifest.base_wal)
            try:
                engine, counts_sources = restore_engine_state(self._directory, manifest)
                if counts_sources:
                    replica_ref = weakref.ref(self)

                    def note_restored(count: int) -> None:
                        replica = replica_ref()
                        if replica is not None:
                            replica._count_states_restored = count

                    engine.stage_count_states(
                        make_counts_loader(engine, counts_sources, note_restored)
                    )
                wal = WriteAheadLog.open_read_only(
                    self._directory / _WAL_DIRNAME, segment_bytes=self._segment_bytes
                )
                position = manifest.base_wal
                applied = 0
                with obs.active_tracer().span(
                    "replica.catch_up",
                    follower=self._follower_id,
                    phase="bootstrap",
                ):
                    for record in wal.tail_records(position):
                        applied += apply_wal_record(engine, record)
                        position = record.end
                    position = wal.resting_position(position)
            except StorageRaceError as error:
                last_race = error
                continue
            self._engine = engine
            self._manifest = manifest
            self._wal = wal
            self._position = position
            self._bootstrap_rows = applied
            self._race_strikes = 0
            write_follower_lease(self._directory, self._follower_id, position)
            self._update_lag_gauges()
            return
        raise StorageError(
            f"follower bootstrap of {self._directory} kept racing the leader "
            f"({_BOOTSTRAP_ATTEMPTS} attempts); last race: {last_race}"
        )

    def close(self) -> None:
        """Drop the lease; the follower stops pinning leader segments.

        Queries on the already-applied in-memory state remain available;
        further polls raise.
        """
        if self._closed:
            return
        self._closed = True
        remove_follower_lease(self._directory, self._follower_id)

    def __enter__(self) -> "ReplicaEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ basics
    @property
    def engine(self) -> AssociationEngine:
        """The restored (read-only-by-contract) association engine."""
        return self._engine

    @property
    def directory(self) -> Path:
        """The leader's durability directory this follower tails."""
        return self._directory

    @property
    def follower_id(self) -> str:
        """The lease name under ``<directory>/replicas/``."""
        return self._follower_id

    @property
    def position(self) -> WalPosition:
        """The log position up to which rows are applied (the watermark)."""
        return self._position

    @property
    def manifest(self) -> StorageManifest:
        """The manifest this follower last bootstrapped or refreshed from."""
        return self._manifest

    @property
    def counters(self) -> dict[str, int]:
        """Session counters: polls, applied batches/rows, re-bootstraps."""
        return {
            "polls": self._polls,
            "applied_batches": self._applied_batches,
            "applied_rows": self._applied_rows,
            "bootstrap_rows": self._bootstrap_rows,
            "rebootstraps": self._rebootstraps,
            "count_states_restored": self._count_states_restored,
            "growth_scans": self._growth_scans,
        }

    def __getattr__(self, name: str) -> Any:
        # Everything not defined here (queries, properties, refresh, …)
        # delegates to the restored engine, mirroring DurableEngine.
        engine = object.__getattribute__(self, "_engine")
        if engine is None:
            raise AttributeError(name)
        return getattr(engine, name)

    def __repr__(self) -> str:
        rows = self._engine.num_observations if self._engine is not None else 0
        return (
            f"ReplicaEngine(directory={str(self._directory)!r}, "
            f"rows={rows}, position={self._position})"
        )

    # ------------------------------------------------------------------ write surface
    def _read_only(self, operation: str) -> StorageError:
        return StorageError(
            f"ReplicaEngine is a read-only follower of {self._directory}; "
            f"{operation} must run on the leader"
        )

    def append_rows(self, rows) -> int:
        raise self._read_only("append_rows")

    def append_row(self, row) -> int:
        raise self._read_only("append_row")

    def checkpoint(self):
        raise self._read_only("checkpoint")

    def compact(self):
        raise self._read_only("compact")

    def flush(self):
        raise self._read_only("flush")

    # ------------------------------------------------------------------ tailing
    def poll(self) -> int:
        """Apply every newly shipped complete frame; returns rows applied.

        A torn or still-growing tail frame simply ends the poll (re-poll
        later).  A reader/writer race retries on the next poll; after
        ``_RACE_STRIKES_BEFORE_REBOOTSTRAP`` consecutive raced polls the
        follower re-bootstraps from the latest manifest — the leader
        compacted past this follower's position (expired lease), and the
        fresh manifest is the O(delta) way back.  Each applied frame is an
        atomic batch: queries between polls never see half a batch.
        """
        self._require_open()
        engine = self._engine
        applied_rows = 0
        self._polls += 1
        _OBS_POLLS.inc()
        try:
            with obs.active_tracer().span(
                "replica.catch_up", follower=self._follower_id, phase="poll"
            ):
                for record in self._wal.tail_records(self._position):
                    with _OBS_APPLY.time(record_type=record.record_type):
                        rows = apply_wal_record(engine, record)
                    self._position = record.end
                    self._applied_batches += 1
                    applied_rows += rows
                self._position = self._wal.resting_position(self._position)
            self._race_strikes = 0
        except StorageRaceError:
            self._race_strikes += 1
            if self._race_strikes >= _RACE_STRIKES_BEFORE_REBOOTSTRAP:
                applied_rows += self._rebootstrap()
        self._applied_rows += applied_rows
        _OBS_APPLIED_ROWS.inc(applied_rows)
        write_follower_lease(self._directory, self._follower_id, self._position)
        self._update_lag_gauges()
        return applied_rows

    def _rebootstrap(self) -> int:
        """Full re-bootstrap from the latest manifest; returns net new rows."""
        rows_before = self._engine.num_observations if self._engine else 0
        self._rebootstraps += 1
        _OBS_REBOOTSTRAPS.inc()
        self._bootstrap()
        return max(0, self._engine.num_observations - rows_before)

    def catch_up(self, *, timeout: float | None = None, poll_interval: float = 0.02) -> int:
        """Poll until no unread complete frames remain; returns rows applied.

        With a live leader still appending this is a moving target;
        ``timeout`` (seconds) bounds the wait and raises
        :class:`~repro.exceptions.StorageError` on expiry.
        """
        self._require_open()
        deadline = None if timeout is None else time.monotonic() + timeout
        total = 0
        while True:
            total += self.poll()
            if self._race_strikes == 0 and self.lag().bytes == 0:
                return total
            if deadline is not None and time.monotonic() > deadline:
                raise StorageError(
                    f"follower {self._follower_id} did not catch up within "
                    f"{timeout} seconds (lag: {self.lag()})"
                )
            time.sleep(poll_interval)

    def wait_for_growth(
        self, *, timeout: float = 1.0, poll_interval: float = 0.02
    ) -> bool:
        """Block until the log grows past this follower's position.

        The "notify" half of poll/notify without any IPC dependency.  A
        leader's log overwrites one small advisory ``NOTIFY`` file with
        its tail after every append and roll, so each tick here reads that
        single file; the full segment scan
        (:meth:`~repro.storage.wal.WriteAheadLog.total_bytes`, a glob plus
        one ``stat`` per segment) runs only when the advertised tail
        actually changed.  When the file is absent or torn (an older
        leader, a racing overwrite) every tick falls back to the scan —
        the pre-notify behavior, just costlier.  Returns ``True`` as soon
        as unread bytes appear, ``False`` on timeout.
        """
        self._require_open()
        deadline = time.monotonic() + timeout
        last_advertised: object = self  # sentinel: always scan on tick one
        while True:
            advertised = self._wal.notify_position()
            if advertised is None or advertised != last_advertised:
                last_advertised = advertised
                self._growth_scans += 1
                if self._unread_bytes() > 0:
                    return True
            if time.monotonic() > deadline:
                return False
            time.sleep(poll_interval)

    # ------------------------------------------------------------------ lag
    def _unread_bytes(self) -> int:
        return self._wal.total_bytes(since=self._position)

    def lag(self) -> ReplicaLag:
        """Current :class:`ReplicaLag` against the leader's on-disk state."""
        self._require_open()
        try:
            manifest_rows = read_manifest(self._directory).num_rows
        except StorageError:
            manifest_rows = self._manifest.num_rows
        rows = max(0, manifest_rows - self._engine.num_observations)
        return ReplicaLag(rows=rows, bytes=self._unread_bytes())

    def _update_lag_gauges(self) -> None:
        lag = self.lag()
        _OBS_LAG_ROWS.set(lag.rows)
        _OBS_LAG_BYTES.set(lag.bytes)

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError(f"replica engine over {self._directory} is closed")
