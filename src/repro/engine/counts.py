"""Persistence of the engine's per-candidate contingency count arrays.

The engine's append-speed trick is a persistent :class:`_CountState` per
γ-significance candidate: appending rows only adds the new rows' cell
counts, and re-evaluating significance reads cached ``max_sum``
accumulators instead of sweeping the data.  Those arrays were historically
*not* persisted — a restored engine rebuilt every candidate's contingency
array from the row store on its first refresh, O(candidates × rows), which
dominated cold opens.

This module packs count states into one ``.npz`` archive so snapshots and
storage checkpoints can carry them.  A state is ``(key, upto, counts)``:

* ``key`` — the candidate as attribute *indices*: ``(head,)`` for the
  per-column baseline counts, ``(head, tail)`` / ``(head, tail, tail)``
  for contingency tables (matching the engine's ``_tables`` keys);
* ``upto`` — how many stored rows the array has absorbed (an adopted
  state with ``upto < num_rows`` is caught up incrementally, O(delta));
* ``counts`` — the integer array itself, shape ``(cardinality,) ** len(key)``
  with tail axes first and the head axis last.

All keys, uptos, and counts concatenate into four flat vectors, so the
archive holds a handful of entries regardless of candidate count and
loading is a few buffer reads.  The stamp pins the *value domain* — a
``domain_crc32`` plus cardinality and attribute count — because count
arrays are indexed by domain codes: grow the domain and every code moves,
so an archive whose stamp does not match the live store must be discarded
(callers skip it; the engine then rebuilds those candidates from rows).
"""

from __future__ import annotations

import io
import zlib
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import SnapshotVersionError
from repro.hypergraph.io import atomic_write_bytes, load_npz

__all__ = [
    "COUNTS_FORMAT",
    "CountStateArchive",
    "domain_crc32",
    "load_count_states",
    "save_count_states",
]

#: Identifier written into (and required from) count-state archives.
COUNTS_FORMAT = "repro.count-state/1"


def domain_crc32(domain: Iterable[Any]) -> int:
    """Digest of a value domain in code order, type-sensitive.

    Count arrays are indexed by domain codes, so two domains are
    interchangeable only when every ``(type, value)`` pair matches in
    order — ``1`` and ``"1"`` and ``True`` must digest differently.
    """
    return zlib.crc32(
        "|".join(f"{type(v).__name__}:{v!r}" for v in domain).encode("utf-8")
    )


class CountStateArchive:
    """A decoded count-state archive: its stamp and its states.

    ``states`` maps candidate keys (attribute-index tuples) to
    ``(counts, upto)``.  ``matches_domain`` is the adoption gate: states
    are only meaningful against a store whose domain digests identically.
    """

    __slots__ = ("domain_crc32", "cardinality", "num_attributes", "num_rows", "states")

    def __init__(
        self,
        domain_digest: int,
        cardinality: int,
        num_attributes: int,
        num_rows: int,
        states: dict[tuple[int, ...], tuple[np.ndarray, int]],
    ) -> None:
        self.domain_crc32 = domain_digest
        self.cardinality = cardinality
        self.num_attributes = num_attributes
        self.num_rows = num_rows
        self.states = states

    def matches_domain(self, domain_digest: int, cardinality: int) -> bool:
        """True when the archive's code space is the live store's."""
        return self.domain_crc32 == domain_digest and self.cardinality == cardinality


def save_count_states(
    path: str | Path,
    states: Mapping[tuple[int, ...], tuple[np.ndarray, int]],
    *,
    domain_digest: int,
    cardinality: int,
    num_attributes: int,
    num_rows: int,
) -> int:
    """Write count states as one atomic ``.npz`` archive; returns its CRC32.

    ``states`` maps candidate keys (attribute-index tuples, head first) to
    ``(counts, upto)`` pairs, the exact shape
    :meth:`AssociationEngine.export_count_states` produces.
    """
    keys = sorted(states)
    key_data: list[int] = []
    key_lengths = np.empty(len(keys), dtype=np.int64)
    uptos = np.empty(len(keys), dtype=np.int64)
    chunks: list[np.ndarray] = []
    for position, key in enumerate(keys):
        counts, upto = states[key]
        key_data.extend(key)
        key_lengths[position] = len(key)
        uptos[position] = upto
        chunks.append(np.ascontiguousarray(counts, dtype=np.int64).reshape(-1))
    counts_data = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    # Cell counts are bounded by the row count: store the narrowest
    # unsigned dtype that holds them (4-8x smaller archives, and the
    # whole vector widens back in one pass at load).
    for narrow in (np.uint8, np.uint16, np.uint32):
        if num_rows <= np.iinfo(narrow).max:
            counts_data = counts_data.astype(narrow)
            break
    arrays = {
        "format": np.asarray(COUNTS_FORMAT),
        "domain_crc32": np.asarray(int(domain_digest), dtype=np.int64),
        "cardinality": np.asarray(int(cardinality), dtype=np.int64),
        "num_attributes": np.asarray(int(num_attributes), dtype=np.int64),
        "num_rows": np.asarray(int(num_rows), dtype=np.int64),
        "key_data": np.asarray(key_data, dtype=np.int64),
        "key_lengths": key_lengths,
        "uptos": uptos,
        "counts_data": counts_data,
    }
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    encoded = buffer.getvalue()
    atomic_write_bytes(path, encoded)
    return zlib.crc32(encoded)


def load_count_states(
    path: str | Path, *, raw: bytes | None = None
) -> CountStateArchive:
    """Read a :func:`save_count_states` archive back.

    ``raw`` optionally supplies already-read (integrity-checked) bytes so
    the file is not read twice.  Structural damage — wrong format marker,
    inconsistent vector lengths — raises
    :class:`~repro.exceptions.SnapshotVersionError`; callers in the
    storage layer translate that into a corruption error.
    """
    path = Path(path)
    data = load_npz(io.BytesIO(raw) if raw is not None else path)
    if "format" not in data or str(data["format"]) != COUNTS_FORMAT:
        raise SnapshotVersionError(
            f"{path} is not a {COUNTS_FORMAT!r} count-state archive"
        )
    cardinality = int(data["cardinality"])
    key_lengths = data["key_lengths"]
    key_data = data["key_data"]
    uptos = data["uptos"]
    counts_data = data["counts_data"].astype(np.int64, copy=False)
    if len(key_lengths) != len(uptos) or int(key_lengths.sum()) != len(key_data):
        raise SnapshotVersionError(
            f"count-state archive {path} has inconsistent key vectors"
        )
    sizes = cardinality ** key_lengths.astype(np.int64)
    if int(sizes.sum()) != len(counts_data):
        raise SnapshotVersionError(
            f"count-state archive {path} holds {len(counts_data)} counts "
            f"but its keys describe {int(sizes.sum())}"
        )
    states: dict[tuple[int, ...], tuple[np.ndarray, int]] = {}
    key_offset = 0
    data_offset = 0
    for position, length in enumerate(key_lengths.tolist()):
        key = tuple(key_data[key_offset : key_offset + length].tolist())
        key_offset += length
        size = int(sizes[position])
        counts = counts_data[data_offset : data_offset + size].reshape(
            (cardinality,) * length
        )
        data_offset += size
        states[key] = (counts, int(uptos[position]))
    return CountStateArchive(
        int(data["domain_crc32"]),
        cardinality,
        int(data["num_attributes"]),
        int(data["num_rows"]),
        states,
    )
