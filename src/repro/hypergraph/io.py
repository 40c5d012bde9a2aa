"""Serialization of directed hypergraphs and compiled index snapshots.

The experiment harness can persist a constructed association hypergraph so
that expensive builds are not repeated when re-rendering tables.  Payloads
are included only when they are JSON-serializable already (association
tables expose ``to_dict``/``from_dict`` for this purpose and are handled by
the caller); otherwise they are dropped with a plain weight-only edge.

Beyond the JSON forms, :func:`save_index_snapshot` /
:func:`load_index_snapshot` persist a compiled
:class:`~repro.hypergraph.shards.ShardedHypergraphIndex` as an ``.npz``
sidecar: the per-shard CSR/weight arrays are written uncompressed, so a
cold start reads them back as straight buffer copies (no per-edge Python
work) and the derived lookup structures hydrate lazily per shard.  Every
sidecar carries a *stamp* — the model version and edge/row counts of the
JSON document it belongs to — and loading validates the stamp, raising
:class:`~repro.exceptions.SnapshotVersionError` rather than silently
recompiling or serving stale arrays.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import threading
import zlib
from collections.abc import Callable, Iterable, Mapping
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import SnapshotVersionError
from repro.hypergraph.dhg import DirectedHypergraph
from repro.hypergraph.shards import IndexShard, ShardedHypergraphIndex

__all__ = [
    "fsync_directory",
    "hypergraph_to_dict",
    "hypergraph_from_dict",
    "save_hypergraph",
    "load_hypergraph",
    "save_index_snapshot",
    "load_index_snapshot",
    "save_shards_npz",
    "load_shards_npz",
    "load_npz",
    "hypergraph_model_crc32",
    "atomic_write_bytes",
    "atomic_write_text",
    "INDEX_SNAPSHOT_FORMAT",
]

#: Identifier written into (and required from) index snapshot sidecars.
INDEX_SNAPSHOT_FORMAT = "repro.index-snapshot/1"

#: Names of the per-shard arrays persisted in a snapshot, in storage order.
_SHARD_ARRAYS = ("weights", "tail_ids", "tail_offsets", "head_ids", "head_offsets")


#: numpy parses every ``.npy`` header with ``ast.literal_eval``.  CPython
#: 3.11 keeps the AST constructor's recursion depth per interpreter, not
#: per thread, so two threads parsing at once can fail with ``SystemError:
#: AST constructor recursion depth mismatch``.  The serving tier reads
#: archives on request and writer threads at once, so every archive read
#: goes through :func:`load_npz`, one at a time.
_NPZ_LOCK = threading.Lock()


def load_npz(source: str | Path | io.BytesIO) -> dict[str, np.ndarray]:
    """Every array of an ``.npz`` archive, read under a process-wide lock."""
    with _NPZ_LOCK, np.load(source, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def fsync_directory(path: str | Path) -> None:
    """Fsync a directory so its dirent changes survive power loss.

    Shared by the atomic-write helpers and the write-ahead log: without
    the directory fsync a freshly created (or renamed-over) file's bytes
    may be durable while the name pointing at them is not.  Platforms
    that cannot open directories read-only are silently skipped.
    """
    try:
        dir_fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir open
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + ``os.replace``.

    The temp file is flushed and fsynced before the rename, and the parent
    directory is fsynced after it, so a crash — including power loss — at
    any point leaves either the old file or the complete new one, never a
    torn write.  Every snapshot/manifest writer in the library goes through
    this (or :func:`atomic_write_text`).
    """
    path = Path(path)
    handle = tempfile.NamedTemporaryFile(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp", delete=False
    )
    try:
        with handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    # Persist the rename itself: without a directory fsync the new dirent
    # may not survive power loss even though the file's bytes would.
    fsync_directory(path.parent)


def atomic_write_text(path: str | Path, text: str) -> None:
    """UTF-8 text counterpart of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def hypergraph_to_dict(
    hypergraph: DirectedHypergraph,
    payload_encoder: Callable[[Any], Any] | None = None,
) -> dict[str, Any]:
    """Convert a hypergraph to a plain dict of vertices and edges.

    ``payload_encoder`` optionally maps each non-``None`` edge payload to a
    JSON-friendly value stored under the edge's ``"payload"`` key (the
    engine passes ``AssociationTable.to_dict`` here); payloads are dropped
    when no encoder is given, preserving the historical weight-only format.
    """
    edges = []
    for edge in hypergraph.edges():
        entry: dict[str, Any] = {
            "tail": sorted(map(str, edge.tail)),
            "head": sorted(map(str, edge.head)),
            "weight": edge.weight,
        }
        if payload_encoder is not None and edge.payload is not None:
            entry["payload"] = payload_encoder(edge.payload)
        edges.append(entry)
    return {"vertices": sorted(map(str, hypergraph.vertices)), "edges": edges}


def hypergraph_from_dict(
    data: dict[str, Any],
    payload_decoder: Callable[[Any], Any] | None = None,
) -> DirectedHypergraph:
    """Rebuild a hypergraph from :func:`hypergraph_to_dict` output.

    ``payload_decoder`` reverses the encoder used at save time; edges
    without a stored payload get ``payload=None`` either way.
    """
    hypergraph = DirectedHypergraph(data.get("vertices", []))
    for edge in data.get("edges", []):
        payload = edge.get("payload")
        if payload is not None and payload_decoder is not None:
            payload = payload_decoder(payload)
        hypergraph.add_edge(
            edge["tail"], edge["head"], weight=edge.get("weight", 1.0), payload=payload
        )
    return hypergraph


def save_hypergraph(hypergraph: DirectedHypergraph, path: str | Path) -> None:
    """Write a hypergraph to ``path`` as JSON (atomically)."""
    atomic_write_text(path, json.dumps(hypergraph_to_dict(hypergraph), indent=2))


def load_hypergraph(path: str | Path) -> DirectedHypergraph:
    """Read a hypergraph previously written by :func:`save_hypergraph`."""
    return hypergraph_from_dict(json.loads(Path(path).read_text()))


# --------------------------------------------------------------------------- index snapshots
def hypergraph_model_crc32(hypergraph: DirectedHypergraph) -> int:
    """A CRC over the exact edge keys and weights of a hypergraph.

    Edge/vertex counts alone can collide across different models; this
    digest pins an index-snapshot stamp to the exact topology and weights
    the arrays were compiled from, so a sidecar left behind by another
    model with coincidentally equal counts is still refused.
    """
    return zlib.crc32(
        "|".join(
            sorted(
                f"{sorted(map(str, edge.tail))}->{sorted(map(str, edge.head))}"
                f":{edge.weight!r}"
                for edge in hypergraph.edges()
            )
        ).encode()
    )


def save_shards_npz(
    path: str | Path,
    shards: Iterable[IndexShard],
    num_vertices: int,
    stamp: Mapping[str, int],
    *,
    format_name: str = INDEX_SNAPSHOT_FORMAT,
) -> int:
    """Persist a collection of compiled shards as one ``.npz`` archive.

    Returns the CRC32 of the written bytes (the storage manifest records
    it so corruption is caught at open without re-reading here).

    ``stamp`` is a mapping of integer fields identifying the model state
    the arrays were compiled from; :func:`load_shards_npz` refuses files
    whose stamp does not match.  Arrays are stored *uncompressed* so
    loading is I/O-bound, not CPU-bound, and the write goes through
    :func:`atomic_write_bytes` so a crash can never leave a torn archive.

    The full-index snapshots (:func:`save_index_snapshot`) and the storage
    layer's delta snapshots (:mod:`repro.storage.deltas`) share this
    format; they differ only in ``format_name`` and in which shards they
    include.
    """
    shard_list = list(shards)
    arrays: dict[str, np.ndarray] = {
        "format": np.asarray(format_name),
        "num_vertices": np.asarray(int(num_vertices), dtype=np.int64),
        "shard_heads": np.asarray(
            [shard.head_vertex for shard in shard_list], dtype=np.int64
        ),
        "shard_edge_counts": np.asarray(
            [shard.num_edges for shard in shard_list], dtype=np.int64
        ),
    }
    for field, value in stamp.items():
        arrays[f"stamp_{field}"] = np.asarray(int(value), dtype=np.int64)
    # The shards' arrays are concatenated in the given order (plus per-shard
    # edge counts to slice them back apart), which keeps the archive at a
    # handful of entries — loading cost is one buffer read per array, not
    # one zip entry per shard.  For a stitched index this reproduces its
    # global arrays exactly.
    if shard_list:
        arrays["weights"] = np.concatenate([s.weights for s in shard_list])
        arrays["tail_ids"] = np.concatenate([s.tail_ids for s in shard_list])
        arrays["head_ids"] = np.concatenate([s.head_ids for s in shard_list])
        arrays["tail_offsets"] = ShardedHypergraphIndex._stitch_offsets(
            [s.tail_offsets for s in shard_list]
        )
        arrays["head_offsets"] = ShardedHypergraphIndex._stitch_offsets(
            [s.head_offsets for s in shard_list]
        )
    else:
        arrays["weights"] = np.empty(0, dtype=np.float64)
        arrays["tail_ids"] = np.empty(0, dtype=np.int64)
        arrays["head_ids"] = np.empty(0, dtype=np.int64)
        arrays["tail_offsets"] = np.zeros(1, dtype=np.int64)
        arrays["head_offsets"] = np.zeros(1, dtype=np.int64)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    encoded = buffer.getvalue()
    atomic_write_bytes(path, encoded)
    return zlib.crc32(encoded)


def save_index_snapshot(
    path: str | Path,
    index: ShardedHypergraphIndex,
    stamp: Mapping[str, int],
) -> None:
    """Persist a stitched sharded index's compiled arrays as an ``.npz`` file.

    ``stamp`` is a mapping of integer fields (conventionally
    ``model_version``, ``num_rows``, ``num_edges``) identifying the model
    state the arrays were compiled from; :func:`load_index_snapshot`
    refuses sidecars whose stamp does not match.
    """
    save_shards_npz(path, index.shards, index.num_vertices, stamp)


def load_shards_npz(
    path: str | Path,
    expected_stamp: Mapping[str, int] | None = None,
    *,
    format_name: str = INDEX_SNAPSHOT_FORMAT,
    raw: bytes | None = None,
) -> tuple[dict[str, int], list[IndexShard]]:
    """Read a :func:`save_shards_npz` archive back; returns ``(stamp, shards)``.

    ``expected_stamp`` is compared field by field against the stored stamp;
    any disagreement (including missing fields on either side) raises
    :class:`~repro.exceptions.SnapshotVersionError` naming the offending
    fields.  The shards' derived lookup dicts hydrate lazily on first use.

    ``raw`` optionally supplies the archive bytes already in memory (e.g.
    just read for an integrity check) so the file is not read twice;
    ``path`` is then used only for error messages.
    """
    path = Path(path)
    data = load_npz(io.BytesIO(raw) if raw is not None else path)
    if "format" not in data or str(data["format"]) != format_name:
        raise SnapshotVersionError(f"{path} is not a {format_name!r} shard archive")
    stamp = {
        name[len("stamp_") :]: int(data[name])
        for name in data
        if name.startswith("stamp_")
    }
    if expected_stamp is not None:
        expected = {field: int(value) for field, value in expected_stamp.items()}
        mismatched = sorted(
            field
            for field in set(expected) | set(stamp)
            if expected.get(field) != stamp.get(field)
        )
        if mismatched:
            details = ", ".join(
                f"{field}: snapshot={stamp.get(field)!r} expected={expected.get(field)!r}"
                for field in mismatched
            )
            raise SnapshotVersionError(
                f"shard archive {path} does not match its model ({details}); "
                "refusing to serve stale arrays — recompile and re-save"
            )
    num_vertices = int(data["num_vertices"])
    heads = data["shard_heads"].tolist()
    counts = data["shard_edge_counts"]
    weights, tail_ids, tail_offsets, head_ids, head_offsets = (
        data[name] for name in _SHARD_ARRAYS
    )
    edge_bounds = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64))
    )
    shards = []
    for position, head_vertex in enumerate(heads):
        lo, hi = int(edge_bounds[position]), int(edge_bounds[position + 1])
        tail_lo, tail_hi = int(tail_offsets[lo]), int(tail_offsets[hi])
        head_lo, head_hi = int(head_offsets[lo]), int(head_offsets[hi])
        shards.append(
            IndexShard(
                head_vertex,
                num_vertices,
                weights[lo:hi],
                tail_ids[tail_lo:tail_hi],
                tail_offsets[lo : hi + 1] - tail_lo,
                head_ids[head_lo:head_hi],
                head_offsets[lo : hi + 1] - head_lo,
            )
        )
    return stamp, shards


def load_index_snapshot(
    path: str | Path,
    expected_stamp: Mapping[str, int] | None = None,
) -> tuple[dict[str, int], list[IndexShard]]:
    """Read an index snapshot back; returns ``(stamp, shards)``.

    ``expected_stamp`` — typically read from the JSON document the sidecar
    sits next to — is validated exactly as in :func:`load_shards_npz`.
    """
    return load_shards_npz(path, expected_stamp)
