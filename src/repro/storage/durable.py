"""The durable engine: WAL-teed appends, O(delta) checkpoints, exact recovery.

:class:`DurableEngine` wraps an :class:`~repro.engine.AssociationEngine`
with log-structured persistence under one directory::

    market/
      MANIFEST.json                  the committed chain (atomic replace)
      base-00000001.json             full engine snapshot (+ .json.npz
                                     index and .json.counts.npz count-state
                                     sidecars)
      delta-00000003.npz             changed shards of checkpoint 3
      delta-00000003.counts.npz      their contingency count states
      wal/wal-00000001.log           CRC32-framed row batches (binary,
                                     :mod:`repro.storage.frames`) +
                                     checkpoint markers

Three operations, three costs:

* :meth:`append_rows` — O(batch): the normalized batch is framed into the
  write-ahead log *before* the engine ingests it, so an accepted append
  survives a crash.  With ``sync=True`` the frame is fsynced — per append,
  or under a shared :class:`~repro.storage.wal.GroupCommitWindow` fsync
  batched across appends with :meth:`flush` as the explicit boundary.
* :meth:`checkpoint` — O(changed state): persists the index shards *and*
  contingency count states of exactly the heads whose hyperedges changed
  since the last checkpoint (a delta snapshot), syncs the log, and
  atomically swaps the manifest.  Rows are *not* rewritten — they are
  already in the log.
* :meth:`compact` — O(total), run rarely (size/length policy): folds log
  + deltas into a fresh base and deletes what the new manifest no longer
  references.

:meth:`open` reverses the layering: base snapshot → delta shards (later
checkpoints win per head) → WAL-tail replay → count-state adoption.  The
recovered engine is **bit-identical** to one that never persisted: rows
replay through the exact append path, the engine's canonical edge
reconciliation makes edge order a pure function of the rows, and adopted
shards carry their exact signatures so the first refresh recompiles only
heads that changed after the last checkpoint.  The adopted count states
make that first refresh O(rows appended since each state was persisted)
instead of O(candidates × rows) — integer count arrays catch up
incrementally and land bit-identical to a full rebuild.  Torn log tails
are healed (crash-mid-append); anything else that fails an integrity
check raises :class:`~repro.exceptions.StorageCorruptionError` — never a
silently wrong answer.

Examples
--------
>>> import tempfile
>>> from repro.data import patient_database_discretized
>>> tmp = tempfile.TemporaryDirectory()
>>> durable = DurableEngine.create(tmp.name, engine=None,
...     attributes=patient_database_discretized().attributes)
>>> durable.append_rows(patient_database_discretized().to_rows())
8
>>> _ = durable.checkpoint()
>>> durable.close()
>>> reopened = DurableEngine.open(tmp.name)
>>> reopened.num_observations
8
"""

from __future__ import annotations

import json
import weakref
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro import obs
from repro.core.config import BuildConfig
from repro.data.database import Database
from repro.engine.counts import load_count_states, save_count_states
from repro.engine.engine import AssociationEngine
from repro.engine.store import EncodedRowStore
from repro.exceptions import (
    EngineError,
    ReproError,
    SnapshotVersionError,
    StorageCorruptionError,
    StorageError,
)
from repro.hypergraph.io import load_shards_npz
from repro.storage.compaction import (
    DEFAULT_POLICY,
    CompactionPolicy,
    CompactionReport,
)
from repro.storage.deltas import (
    DeltaEntry,
    StorageManifest,
    file_crc32,
    read_delta,
    read_manifest,
    shard_signature,
    verify_file_crc32,
    write_delta,
    write_manifest,
)
from repro.storage.frames import decode_rows, encode_rows
from repro.storage.wal import (
    BINARY_ROWS_RECORD,
    MARKER_RECORD,
    ROWS_RECORD,
    GroupCommitWindow,
    WalPosition,
    WriteAheadLog,
)

__all__ = [
    "CheckpointResult",
    "DurableEngine",
    "StorageCounters",
    "apply_wal_record",
    "make_counts_loader",
    "restore_engine_state",
]

_WAL_DIRNAME = "wal"

# Observability handles (no-ops until ``repro.obs.enable``).  The
# per-session ``StorageCounters`` ints stay each wrapper's source of
# truth; these mirror the same events process-wide and time the layered
# phases of recovery the plain ints cannot see.
_OBS_APPEND = obs.timer("storage.append_rows", "one WAL-teed append (log + ingest)")
_OBS_APPENDED_BATCHES = obs.counter(
    "storage.appended_batches", "row batches framed into the log"
)
_OBS_FLUSH = obs.timer("storage.flush", "explicit group-commit boundary fsync")
_OBS_CHECKPOINT = obs.timer("storage.checkpoint", "one delta checkpoint")
_OBS_CHECKPOINTS = obs.counter("storage.checkpoints", "checkpoints committed")
_OBS_DELTAS = obs.counter("storage.deltas_written", "delta snapshots written")
_OBS_COMPACT = obs.timer("storage.compact", "one log+delta compaction")
_OBS_COMPACTIONS = obs.counter("storage.compactions", "compactions run")
_OBS_OPEN = obs.timer("storage.open", "full recovery of a durability directory")
_OBS_OPEN_BASE = obs.timer("storage.open.base_load", "base snapshot + sidecar load")
_OBS_OPEN_DELTAS = obs.timer("storage.open.delta_overlay", "delta-chain shard overlay")
_OBS_OPEN_REPLAY = obs.timer("storage.open.wal_replay", "WAL-tail row replay")
_OBS_OPEN_COUNTS = obs.timer(
    "storage.open.count_adoption", "deferred count-state decode + adoption"
)
_OBS_RECOVERED = obs.counter("storage.recovered_rows", "rows replayed from the log")
_OBS_COUNTS_RESTORED = obs.counter(
    "storage.count_states_restored", "count states adopted from archives"
)


@dataclass(frozen=True)
class CheckpointResult:
    """What one :meth:`DurableEngine.checkpoint` call persisted.

    When the checkpoint triggered compaction (``compacted``), the delta it
    transiently wrote was folded into the fresh base and deleted again, so
    ``delta_file`` is ``None`` and ``checkpoint_id`` is the compaction's —
    the result always describes on-disk state the caller can observe.
    """

    checkpoint_id: int
    dirty_heads: tuple[str, ...]
    delta_file: str | None
    compacted: bool
    skipped: bool = False


@dataclass(frozen=True)
class StorageCounters:
    """Operational counters of one durable-engine session."""

    appended_batches: int
    checkpoints: int
    deltas_written: int
    compactions: int
    recovered_rows: int
    count_states_restored: int = 0

    # Back-reference to the durable engine this snapshot was read from
    # (set by the ``counters`` property).  Deliberately unannotated: a
    # plain class attribute, not a dataclass field, so equality, repr, and
    # ``as_dict`` compare and export only the counts.
    _owner = None

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain ``{name: count}`` dict."""
        return asdict(self)

    def reset(self) -> None:
        """Zero the owning durable engine's live session counters.

        Only snapshots obtained from :attr:`DurableEngine.counters` carry
        an owner; calling ``reset`` on a detached instance raises
        :class:`~repro.exceptions.StorageError`.
        """
        if self._owner is None:
            raise StorageError(
                "this StorageCounters snapshot is not attached to a durable engine"
            )
        self._owner._reset_counters()


def _base_name(checkpoint_id: int) -> str:
    return f"base-{checkpoint_id:08d}.json"


def _delta_name(checkpoint_id: int) -> str:
    return f"delta-{checkpoint_id:08d}.npz"


def _delta_counts_name(checkpoint_id: int) -> str:
    return f"delta-{checkpoint_id:08d}.counts.npz"


def restore_engine_state(
    directory: Path, manifest: StorageManifest
) -> tuple[AssociationEngine, list[tuple[Path, bytes, str]]]:
    """Restore a manifest's base snapshot + delta-shard overlay; no WAL replay.

    The shared first phase of leader recovery (:meth:`DurableEngine.open`)
    and follower bootstrap (:class:`~repro.storage.replication.ReplicaEngine`):
    load and verify the base snapshot and its compiled-index sidecar, adopt
    the delta chain's shards (later checkpoints win per head, exact
    signatures attached), and integrity-check every count-state archive.
    Returns the restored engine plus the verified ``(path, bytes, label)``
    count-state sources for :func:`make_counts_loader` — decoding stays
    deferred to the first refresh.  Zero shard compiles on the happy path.
    """
    with _OBS_OPEN_BASE.time():
        base_path = directory / manifest.base_file
        base_bytes = verify_file_crc32(base_path, manifest.base_crc32, "base snapshot")
        try:
            data = json.loads(base_bytes)
        except json.JSONDecodeError as error:
            raise StorageCorruptionError(
                f"unreadable base snapshot {base_path}: {error}"
            ) from error
        try:
            engine = AssociationEngine.from_snapshot(data)
        except (ReproError, KeyError, TypeError, ValueError) as error:
            raise StorageCorruptionError(
                f"base snapshot {base_path} cannot be restored: {error}"
            ) from error

        # Compiled shards: base sidecar overlaid by the delta chain
        # (later checkpoints win per head), each validated against its
        # stamp and manifest-recorded digest.  The digest reads double
        # as the decode source, so every archive is read exactly once.
        sidecar = AssociationEngine.sidecar_path(base_path)
        sidecar_bytes = verify_file_crc32(
            sidecar, manifest.sidecar_crc32, "base index sidecar"
        )
        try:
            _stamp, base_shards = load_shards_npz(
                sidecar, expected_stamp=data.get("index_stamp"), raw=sidecar_bytes
            )
        except StorageCorruptionError:
            raise
        except Exception as error:
            raise StorageCorruptionError(
                f"base index sidecar {sidecar} cannot be decoded: {error}"
            ) from error
        merged = {shard.head_vertex: shard for shard in base_shards}
    attributes = engine.attributes

    # Count-state archives: integrity-checked *now* (a corrupt file
    # must fail the open, not some later refresh) but decoded and
    # adopted lazily — many recoveries serve their first queries
    # straight from restored payload tables without a refresh, and a
    # refresh-free session should not pay for decoding arrays it
    # never reads.  The verified bytes are kept for the loader: each
    # archive is read once, and a compaction that meanwhile deleted
    # the file cannot fail the first refresh.  A session that never
    # refreshes pins the bytes for the engine's lifetime — bounded by
    # the size of the count arrays themselves (what adoption would
    # hold in RAM anyway), so the trade favors the single read.
    counts_sources: list[tuple[Path, bytes, str]] = []

    def note_counts(path: Path, crc: int, what: str) -> None:
        counts_sources.append((path, verify_file_crc32(path, crc, what), what))

    if manifest.counts_crc32 is not None:
        note_counts(
            AssociationEngine.counts_sidecar_path(base_path),
            manifest.counts_crc32,
            "base count-state archive",
        )

    with _OBS_OPEN_DELTAS.time(deltas=len(manifest.deltas)):
        delta_heads: set[int] = set()
        for entry in manifest.deltas:
            delta_bytes = verify_file_crc32(
                directory / entry.file, entry.crc32, "delta snapshot"
            )
            delta_shards = read_delta(
                directory / entry.file,
                checkpoint_id=entry.checkpoint_id,
                num_rows=entry.num_rows,
                raw=delta_bytes,
            )
            if entry.counts_file is not None and entry.counts_crc32 is not None:
                note_counts(
                    directory / entry.counts_file,
                    entry.counts_crc32,
                    "delta count-state archive",
                )
            decoded_heads = set()
            for shard in delta_shards:
                if not 0 <= shard.head_vertex < len(attributes):
                    raise StorageCorruptionError(
                        f"delta {entry.file} names head vertex "
                        f"{shard.head_vertex} outside the "
                        f"{len(attributes)}-attribute model"
                    )
                decoded_heads.add(attributes[shard.head_vertex])
                merged[shard.head_vertex] = shard
                delta_heads.add(shard.head_vertex)
            if decoded_heads != set(entry.heads):
                raise StorageCorruptionError(
                    f"delta {entry.file} holds shards for "
                    f"{sorted(decoded_heads)} but the manifest promised "
                    f"{sorted(entry.heads)}"
                )
        # Exact signatures are required only for delta-overridden
        # shards — their arrays describe a *newer* state than the
        # restored base graph, so the engine must not seed their
        # signatures from it.  Base-sidecar shards mirror the base
        # graph exactly (the stamp guarantees it) and hydrate lazily
        # through the engine's own per-head seeding, keeping cold
        # opens free of per-edge Python work for unchanged heads.
        signatures = {
            attributes[head_vertex]: shard_signature(merged[head_vertex], attributes)
            for head_vertex in delta_heads
        }
        engine.adopt_compiled_shards(merged.values(), signatures)
    return engine, counts_sources


def apply_wal_record(engine: AssociationEngine, record) -> int:
    """Apply one replayed (or tailed) WAL record; returns rows appended.

    Shared by leader recovery and follower tailing: decodes binary or JSON
    row batches into the exact append path, and validates checkpoint
    markers against the reconstructed row count (a marker promising more
    rows than replay produced means row records are missing).
    """
    if record.record_type == BINARY_ROWS_RECORD:
        rows = decode_rows(record.payload)
    elif record.record_type in (ROWS_RECORD, MARKER_RECORD):
        try:
            payload = json.loads(record.payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise StorageCorruptionError(
                f"undecodable write-ahead-log record at {record.end}: {error}"
            ) from error
        if record.record_type == MARKER_RECORD:
            expected = payload.get("num_rows")
            if expected != engine.num_observations:
                raise StorageCorruptionError(
                    f"checkpoint marker at {record.end} covers "
                    f"{expected} rows but replay reconstructed "
                    f"{engine.num_observations}; row records are missing"
                )
            return 0
        rows = payload.get("rows")
        if not isinstance(rows, list):
            raise StorageCorruptionError(
                f"write-ahead-log row batch at {record.end} carries no row list"
            )
    else:
        raise StorageCorruptionError(
            f"unknown write-ahead-log record type {record.record_type} "
            f"at {record.end}"
        )
    try:
        return engine.append_rows(rows)
    except (EngineError, KeyError, TypeError) as error:
        raise StorageCorruptionError(
            f"write-ahead-log row batch at {record.end} does not "
            f"fit the model: {error}"
        ) from error


def make_counts_loader(engine, sources, note_restored):
    """A deferred count-state loader for :meth:`AssociationEngine.stage_count_states`.

    ``sources`` are the verified ``(path, bytes, label)`` archives from
    :func:`restore_engine_state`; the returned zero-argument callable
    decodes and merges them — base first, later checkpoints winning per
    candidate, keeping only archives whose domain stamp matches the store
    at first-refresh time — and reports the adopted count through
    ``note_restored``.  The loader is staged on ``engine`` and holds it
    weakly, so an engine dropped before its first refresh is freed at
    once instead of waiting for the cyclic garbage collector.
    """
    sources = tuple(sources)
    engine_ref = weakref.ref(engine)

    def load_staged_counts():
        with _OBS_OPEN_COUNTS.time(archives=len(sources)):
            merged: dict[tuple[int, ...], tuple[Any, int]] = {}
            stamp = engine_ref().count_state_stamp()
            for path, counts_bytes, what in sources:
                try:
                    archive = load_count_states(path, raw=counts_bytes)
                except SnapshotVersionError as error:
                    raise StorageCorruptionError(str(error)) from error
                except Exception as error:  # zipfile/numpy failures
                    raise StorageCorruptionError(
                        f"{what} {path} cannot be decoded: {error}"
                    ) from error
                if archive.matches_domain(stamp["domain_crc32"], stamp["cardinality"]):
                    merged.update(archive.states)
            note_restored(len(merged))
            _OBS_COUNTS_RESTORED.inc(len(merged))
            return merged

    return load_staged_counts


class DurableEngine:
    """An :class:`AssociationEngine` with log-structured durability.

    Construct via :meth:`create` (initialize a directory) or :meth:`open`
    (recover from one); the constructor itself is internal.  Every engine
    query (``similarity``, ``clusters``, ``dominators``, ``classify``,
    ``stats``, properties, …) is available directly on the wrapper via
    delegation, and :attr:`engine` exposes the wrapped instance.

    Appended row values must be JSON-representable scalars (the
    discretizers produce small integers) so log frames replay exactly.
    """

    def __init__(
        self,
        engine: AssociationEngine,
        wal: WriteAheadLog,
        manifest: StorageManifest,
        directory: Path,
        *,
        policy: CompactionPolicy | None = None,
        recovered_rows: int = 0,
        count_states_restored: int = 0,
    ) -> None:
        self._engine = engine
        self._wal = wal
        self._manifest = manifest
        self._directory = Path(directory)
        self.policy = policy or DEFAULT_POLICY
        self._checkpointed_versions = dict(
            zip(engine.head_attributes, engine.index_version_vector)
        )
        self._closed = False
        self._appended_batches = 0
        self._checkpoints = 0
        self._deltas_written = 0
        self._compactions = 0
        self._recovered_rows = recovered_rows
        self._count_states_restored = count_states_restored

    # ------------------------------------------------------------------ construction
    @classmethod
    def create(
        cls,
        directory: str | Path,
        *,
        engine: AssociationEngine | None = None,
        attributes: Sequence[str] | None = None,
        config: BuildConfig | None = None,
        heads: Iterable[str] | None = None,
        values: Iterable[Any] = (),
        policy: CompactionPolicy | None = None,
        sync: bool = False,
        group_commit: GroupCommitWindow | None = None,
        segment_bytes: int = 4 * 1024 * 1024,
    ) -> "DurableEngine":
        """Initialize a durability directory and return the wrapped engine.

        Pass an existing ``engine`` to make its current state the first
        base snapshot, or ``attributes``/``config``/``heads``/``values``
        to start one from scratch.  The directory must not already be
        initialized (open it instead).  ``group_commit`` batches
        ``sync=True`` fsyncs under one covering window (see
        :class:`~repro.storage.wal.GroupCommitWindow` and :meth:`flush`).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / "MANIFEST.json").exists():
            raise StorageError(
                f"{directory} is already a durability directory; use DurableEngine.open"
            )
        if group_commit is not None and not sync:
            raise StorageError(
                "a group-commit window batches sync=True fsyncs; pass sync=True "
                "(or drop the window for explicit-flush-only durability)"
            )
        if engine is None:
            if attributes is None:
                raise StorageError(
                    "DurableEngine.create needs an engine or an attribute list"
                )
            engine = AssociationEngine(attributes, config, heads=heads, values=values)
        wal = WriteAheadLog.create(
            directory / _WAL_DIRNAME,
            segment_bytes=segment_bytes,
            sync=sync,
            group_commit=group_commit,
        )
        checkpoint_id = 1
        base_path = directory / _base_name(checkpoint_id)
        engine.save(base_path)
        manifest = StorageManifest(
            checkpoint_id=checkpoint_id,
            base_file=_base_name(checkpoint_id),
            base_wal=wal.tail,
            wal_tail=wal.tail,
            num_rows=engine.num_observations,
            base_crc32=file_crc32(base_path),
            sidecar_crc32=file_crc32(AssociationEngine.sidecar_path(base_path)),
            counts_crc32=file_crc32(AssociationEngine.counts_sidecar_path(base_path)),
        )
        write_manifest(directory, manifest)
        return cls(engine, wal, manifest, directory, policy=policy)

    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        policy: CompactionPolicy | None = None,
        sync: bool = False,
        group_commit: GroupCommitWindow | None = None,
        segment_bytes: int = 4 * 1024 * 1024,
    ) -> "DurableEngine":
        """Recover the exact engine state from a durability directory.

        Layers base snapshot → delta shards → WAL-tail replay, then adopts
        the persisted count states (base archive overlaid by the delta
        chain, later checkpoints winning per candidate) so the first
        γ-refresh reads cached accumulators and only catches up the rows
        appended after each state was persisted.  A torn log tail is
        healed by truncation; a log shorter than the last durable sync, or
        any base/delta/manifest that fails an integrity check, raises
        :class:`~repro.exceptions.StorageCorruptionError`.
        """
        with _OBS_OPEN.time():
            return cls._open_impl(
                directory,
                policy=policy,
                sync=sync,
                group_commit=group_commit,
                segment_bytes=segment_bytes,
            )

    @classmethod
    def _open_impl(
        cls,
        directory: str | Path,
        *,
        policy: CompactionPolicy | None,
        sync: bool,
        group_commit: GroupCommitWindow | None,
        segment_bytes: int,
    ) -> "DurableEngine":
        directory = Path(directory)
        if group_commit is not None and not sync:
            raise StorageError(
                "a group-commit window batches sync=True fsyncs; pass sync=True "
                "(or drop the window for explicit-flush-only durability)"
            )
        manifest = read_manifest(directory)
        engine, counts_sources = restore_engine_state(directory, manifest)

        # Replay the log tail.  ``WriteAheadLog.open`` healed any torn
        # tail; what remains must reach at least the manifest's last
        # durable sync, else acknowledged records were lost.
        wal = WriteAheadLog.open(
            directory / _WAL_DIRNAME,
            segment_bytes=segment_bytes,
            sync=sync,
            group_commit=group_commit,
        )
        if wal.tail < manifest.wal_tail:
            raise StorageCorruptionError(
                f"write-ahead log ends at {wal.tail} but the manifest recorded "
                f"a durable sync at {manifest.wal_tail}; acknowledged records "
                "were lost"
            )
        recovered_rows = 0
        with _OBS_OPEN_REPLAY.time():
            for record in wal.replay(manifest.base_wal):
                recovered_rows += apply_wal_record(engine, record)
        _OBS_RECOVERED.inc(recovered_rows)

        durable = cls(
            engine,
            wal,
            manifest,
            directory,
            policy=policy,
            recovered_rows=recovered_rows,
        )

        if counts_sources:
            # Stage the (already integrity-checked) archives: the first
            # refresh merges them — base first, later checkpoints winning
            # per candidate — keeping only archives whose domain stamp
            # matches the store at that moment (a domain that grew in the
            # replayed tail, or in later appends, invalidates older
            # archives' codes; those candidates rebuild from rows).  The
            # wrapper is held weakly, as the engine is by the loader.
            durable_ref = weakref.ref(durable)

            def note_restored(count: int) -> None:
                restored = durable_ref()
                if restored is not None:
                    restored._count_states_restored = count

            engine.stage_count_states(
                make_counts_loader(engine, counts_sources, note_restored)
            )
        return durable

    # ------------------------------------------------------------------ basics
    @property
    def engine(self) -> AssociationEngine:
        """The wrapped (always live) association engine."""
        return self._engine

    @property
    def directory(self) -> Path:
        """The durability directory."""
        return self._directory

    @property
    def manifest(self) -> StorageManifest:
        """The last committed manifest (read-only view)."""
        return self._manifest

    @property
    def wal(self) -> WriteAheadLog:
        """The write-ahead log (exposed for inspection and tests)."""
        return self._wal

    @property
    def counters(self) -> StorageCounters:
        """Storage-side counters of this session."""
        counters = StorageCounters(
            appended_batches=self._appended_batches,
            checkpoints=self._checkpoints,
            deltas_written=self._deltas_written,
            compactions=self._compactions,
            recovered_rows=self._recovered_rows,
            count_states_restored=self._count_states_restored,
        )
        object.__setattr__(counters, "_owner", self)
        return counters

    def _reset_counters(self) -> None:
        """Zero the live session counters (see :meth:`StorageCounters.reset`)."""
        self._appended_batches = 0
        self._checkpoints = 0
        self._deltas_written = 0
        self._compactions = 0
        self._recovered_rows = 0
        self._count_states_restored = 0

    def __getattr__(self, name: str) -> Any:
        # Everything not defined here (queries, properties, refresh, …)
        # delegates to the wrapped engine.
        return getattr(self._engine, name)

    def __repr__(self) -> str:
        return (
            f"DurableEngine(directory={str(self._directory)!r}, "
            f"rows={self._engine.num_observations}, "
            f"checkpoint={self._manifest.checkpoint_id}, "
            f"deltas={len(self._manifest.deltas)})"
        )

    # ------------------------------------------------------------------ appends
    def append_rows(
        self, rows: Database | Iterable[Sequence[Any] | Mapping[str, Any]]
    ) -> int:
        """Log a row batch to the WAL, then append it to the engine.

        The batch is normalized (and therefore validated) first, framed
        into the log second, and ingested third — an accepted batch is
        always recoverable.  Returns the number of rows appended.  Under
        ``sync=True`` with a group-commit window, the batch is written
        (and survives a process crash) on return but is durable against
        power loss only once a covering fsync ran — the window firing,
        :meth:`flush`, :meth:`checkpoint`, or :meth:`close`.
        """
        self._require_open()
        if isinstance(rows, Database):
            if rows.attributes != self._engine.attributes:
                raise EngineError(
                    "appended database attributes do not match the engine's "
                    f"({rows.attributes!r} != {self._engine.attributes!r})"
                )
            rows = rows.to_rows()
        try:
            normalized = EncodedRowStore.normalize_rows(self._engine.attributes, rows)
        except ReproError as error:
            raise EngineError(str(error)) from error
        if not normalized:
            return 0
        # Raises StorageError before anything is logged or ingested when a
        # cell is not a frameable scalar (None, bool, int, float, str).
        payload = encode_rows(normalized)
        if not self._wal.directory.is_dir():
            raise StorageError(
                f"write-ahead-log directory {self._wal.directory} disappeared "
                "mid-run; refusing to acknowledge appends that could not be "
                "made durable"
            )
        with _OBS_APPEND.time(rows=len(normalized)):
            self._wal.append(BINARY_ROWS_RECORD, payload)
            added = self._engine.append_rows(normalized, assume_normalized=True)
        self._appended_batches += 1
        _OBS_APPENDED_BATCHES.inc()
        return added

    def append_row(self, row: Sequence[Any] | Mapping[str, Any]) -> int:
        """Append a single observation durably."""
        return self.append_rows([row])

    def flush(self) -> WalPosition:
        """Force the covering fsync; returns the now-durable log position.

        The explicit group-commit boundary: after ``flush()`` every
        acknowledged append survives power loss, exactly as if the window
        had just fired.  A no-op (beyond an fsync) without a window.
        """
        self._require_open()
        with _OBS_FLUSH.time():
            self._wal.sync()
        return self._wal.durable_tail

    # ------------------------------------------------------------------ checkpoints
    def checkpoint(self) -> CheckpointResult:
        """Persist the dirty part of the model; O(changed state).

        Refreshes the engine, persists the index shards of exactly the
        heads whose hyperedges changed since the last checkpoint as a
        delta snapshot, fsyncs the log, and atomically swaps the manifest.
        When nothing changed (no new rows, no dirty shards) this is a
        no-op.  May trigger :meth:`compact` per the policy.
        """
        self._require_open()
        with _OBS_CHECKPOINT.time():
            return self._checkpoint_impl()

    def _checkpoint_impl(self) -> CheckpointResult:
        engine = self._engine
        engine.index  # refresh + compile so shard versions are current
        versions = dict(zip(engine.head_attributes, engine.index_version_vector))
        dirty = tuple(
            head
            for head in engine.head_attributes
            if versions[head] != self._checkpointed_versions.get(head)
        )
        manifest = self._manifest
        if (
            not dirty
            and self._wal.tail == manifest.wal_tail
            and engine.num_observations == manifest.num_rows
        ):
            return CheckpointResult(
                manifest.checkpoint_id, (), None, compacted=False, skipped=True
            )

        checkpoint_id = manifest.checkpoint_id + 1
        num_rows = engine.num_observations
        marker = json.dumps(
            {
                "checkpoint_id": checkpoint_id,
                "num_rows": num_rows,
                "dirty_heads": list(dirty),
            },
            separators=(",", ":"),
        ).encode("utf-8")
        self._wal.append(MARKER_RECORD, marker)
        self._wal.sync()

        delta_file: str | None = None
        deltas = list(manifest.deltas)
        if dirty:
            delta_file = _delta_name(checkpoint_id)
            delta_crc = write_delta(
                self._directory / delta_file,
                [engine.compiled_shard(head) for head in dirty],
                len(engine.attributes),
                checkpoint_id=checkpoint_id,
                num_rows=num_rows,
            )
            # The dirty heads' contingency states ride along, so recovery
            # re-derives their γ-candidates from cached accumulators
            # instead of sweeping the row store.
            counts_file = _delta_counts_name(checkpoint_id)
            counts_stamp = engine.count_state_stamp()
            counts_crc = save_count_states(
                self._directory / counts_file,
                engine.export_count_states(dirty),
                domain_digest=counts_stamp["domain_crc32"],
                cardinality=counts_stamp["cardinality"],
                num_attributes=counts_stamp["num_attributes"],
                num_rows=num_rows,
            )
            deltas.append(
                DeltaEntry(
                    file=delta_file,
                    checkpoint_id=checkpoint_id,
                    num_rows=num_rows,
                    heads=dirty,
                    crc32=delta_crc,
                    counts_file=counts_file,
                    counts_crc32=counts_crc,
                )
            )
        self._manifest = StorageManifest(
            checkpoint_id=checkpoint_id,
            base_file=manifest.base_file,
            base_wal=manifest.base_wal,
            wal_tail=self._wal.tail,
            num_rows=num_rows,
            base_crc32=manifest.base_crc32,
            sidecar_crc32=manifest.sidecar_crc32,
            counts_crc32=manifest.counts_crc32,
            deltas=deltas,
        )
        write_manifest(self._directory, self._manifest)
        self._checkpointed_versions = versions
        self._checkpoints += 1
        _OBS_CHECKPOINTS.inc()
        if delta_file is not None:
            self._deltas_written += 1
            _OBS_DELTAS.inc()

        if self.policy.should_compact(
            self._wal.total_bytes(since=self._manifest.base_wal),
            len(self._manifest.deltas),
        ):
            self.compact()
            # Compaction superseded this checkpoint's artifacts: the delta
            # just written was folded into the new base and deleted, so the
            # result must describe the state the caller can actually see.
            return CheckpointResult(
                self._manifest.checkpoint_id, dirty, None, compacted=True
            )
        return CheckpointResult(checkpoint_id, dirty, delta_file, compacted=False)

    # ------------------------------------------------------------------ compaction
    def compact(self) -> CompactionReport:
        """Fold log + delta chain into a fresh base; swap atomically.

        Crash-safe ordering: the new base is written first, the manifest
        swap is the commit point, and only artifacts the *new* manifest no
        longer references are deleted afterwards (including any orphans a
        previously interrupted compaction left behind).
        """
        self._require_open()
        with _OBS_COMPACT.time():
            return self._compact_impl()

    def _compact_impl(self) -> CompactionReport:
        engine = self._engine
        wal_bytes_before = self._wal.total_bytes(since=self._manifest.base_wal)
        checkpoint_id = self._manifest.checkpoint_id + 1
        base_file = _base_name(checkpoint_id)
        base_path = self._directory / base_file
        engine.save(base_path)
        if self._wal.tail.offset > 0:
            self._wal.roll()
        base_wal = self._wal.tail
        deltas_removed = len(self._manifest.deltas)
        self._manifest = StorageManifest(
            checkpoint_id=checkpoint_id,
            base_file=base_file,
            base_wal=base_wal,
            wal_tail=base_wal,
            num_rows=engine.num_observations,
            base_crc32=file_crc32(base_path),
            sidecar_crc32=file_crc32(AssociationEngine.sidecar_path(base_path)),
            counts_crc32=file_crc32(AssociationEngine.counts_sidecar_path(base_path)),
        )
        write_manifest(self._directory, self._manifest)

        # Follower-aware retention: a registered follower (fresh lease under
        # replicas/) may still be tailing segments below the new base — hold
        # them back so the follower can keep applying instead of being forced
        # into a full re-bootstrap.  Stale leases (crashed followers) expire
        # by TTL and stop pinning the log.
        from repro.storage.replication import retained_segment_floor

        follower_floor = retained_segment_floor(self._directory)
        boundary = base_wal.segment
        if follower_floor is not None:
            boundary = min(boundary, follower_floor)
        segments_removed = self._wal.delete_segments_before(boundary)
        segments_held = sum(
            1 for seq in self._wal._segments() if seq < base_wal.segment
        )
        keep = {
            base_file,
            AssociationEngine.sidecar_path(Path(base_file)).name,
            AssociationEngine.counts_sidecar_path(Path(base_file)).name,
        }
        # "delta-*.npz" also matches the delta count-state archives
        # ("delta-XXXXXXXX.counts.npz"); the base counts sidecar needs its
        # own pattern.
        patterns = (
            "base-*.json",
            "base-*.json.npz",
            "base-*.json.counts.npz",
            "delta-*.npz",
        )
        for pattern in patterns:
            for path in self._directory.glob(pattern):
                if path.name not in keep:
                    path.unlink(missing_ok=True)
        self._checkpointed_versions = dict(
            zip(engine.head_attributes, engine.index_version_vector)
        )
        self._compactions += 1
        _OBS_COMPACTIONS.inc()
        return CompactionReport(
            checkpoint_id=checkpoint_id,
            segments_removed=segments_removed,
            deltas_removed=deltas_removed,
            wal_bytes_before=wal_bytes_before,
            num_rows=engine.num_observations,
            segments_held_for_followers=segments_held,
        )

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Fsync and close the log; further appends/checkpoints raise.

        Un-checkpointed rows are *not* lost — they are durable in the log
        and replay on the next :meth:`open`.  Queries on the in-memory
        engine remain available.  The engine is marked closed (and the
        log handle released) even when the final fsync fails; the error
        still propagates, and repeated closes stay no-ops.
        """
        if self._closed:
            return
        self._closed = True
        self._wal.close()

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError(
                f"durable engine over {self._directory} is closed"
            )

    def __enter__(self) -> "DurableEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except StorageError:
            # With an exception already in flight (say, the append failure
            # that poisoned the log), a close-time sync error must not
            # replace it — the handle is released either way.
            if exc_type is None:
                raise
