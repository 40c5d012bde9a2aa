"""Round-trip tests for hypergraph serialization."""

from __future__ import annotations

import gc
import sys
import threading
import time

import pytest

from repro.hypergraph.dhg import DirectedHypergraph
from repro.hypergraph.io import (
    hypergraph_from_dict,
    hypergraph_to_dict,
    load_hypergraph,
    load_shards_npz,
    save_hypergraph,
    save_shards_npz,
)


def make_hypergraph():
    h = DirectedHypergraph(["A", "B", "C", "Isolated"])
    h.add_edge(["A"], ["B"], weight=0.25)
    h.add_edge(["A", "B"], ["C"], weight=0.75)
    return h


class TestDictRoundTrip:
    def test_round_trip_preserves_structure(self):
        original = make_hypergraph()
        rebuilt = hypergraph_from_dict(hypergraph_to_dict(original))
        assert rebuilt.num_vertices == original.num_vertices
        assert rebuilt.num_edges == original.num_edges
        assert rebuilt.get_edge(["A", "B"], ["C"]).weight == pytest.approx(0.75)

    def test_isolated_vertices_survive(self):
        rebuilt = hypergraph_from_dict(hypergraph_to_dict(make_hypergraph()))
        assert rebuilt.has_vertex("Isolated")

    def test_missing_weight_defaults_to_one(self):
        rebuilt = hypergraph_from_dict(
            {"vertices": ["X", "Y"], "edges": [{"tail": ["X"], "head": ["Y"]}]}
        )
        assert rebuilt.get_edge(["X"], ["Y"]).weight == 1.0


class TestPayloadRoundTrip:
    def test_payloads_dropped_without_encoder(self):
        h = DirectedHypergraph()
        h.add_edge(["A"], ["B"], weight=0.5, payload={"secret": 1})
        data = hypergraph_to_dict(h)
        assert "payload" not in data["edges"][0]

    def test_payloads_encoded_and_decoded(self):
        h = DirectedHypergraph()
        h.add_edge(["A"], ["B"], weight=0.5, payload={"rows": [1, 2]})
        h.add_edge(["B"], ["C"], weight=0.25)  # payload None stays None
        data = hypergraph_to_dict(h, payload_encoder=lambda p: {"wrapped": p})
        rebuilt = hypergraph_from_dict(data, payload_decoder=lambda p: p["wrapped"])
        assert rebuilt.get_edge(["A"], ["B"]).payload == {"rows": [1, 2]}
        assert rebuilt.get_edge(["B"], ["C"]).payload is None

    def test_association_table_payload_json_round_trip(self):
        from repro.rules.association_table import AssociationRow, AssociationTable

        table = AssociationTable(
            ("A",), ("B",), (AssociationRow((1,), 0.5, (2,), 0.75),)
        )
        h = DirectedHypergraph()
        h.add_edge(["A"], ["B"], weight=table.acv(), payload=table)
        import json

        data = json.loads(
            json.dumps(hypergraph_to_dict(h, payload_encoder=AssociationTable.to_dict))
        )
        rebuilt = hypergraph_from_dict(data, payload_decoder=AssociationTable.from_dict)
        assert rebuilt.get_edge(["A"], ["B"]).payload == table


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "hypergraph.json"
        save_hypergraph(make_hypergraph(), path)
        loaded = load_hypergraph(path)
        assert loaded.num_edges == 2
        assert loaded.has_edge(["A"], ["B"])


def test_archive_reads_are_safe_across_threads(tmp_path):
    """numpy parses every ``.npy`` header with ``ast.literal_eval``, which
    on CPython 3.11 can raise ``SystemError`` when two threads parse at
    once.  Python code run inside garbage collections lets the interpreter
    switch threads mid-parse; archive reads must still never fail."""
    path = tmp_path / "shards.npz"
    save_shards_npz(path, [], 3, {"version": 1})
    raw = path.read_bytes()
    errors: list[BaseException] = []
    deadline = time.monotonic() + 2.0

    def reader() -> None:
        try:
            while time.monotonic() < deadline:
                load_shards_npz(path, raw=raw)
        except Exception as error:
            errors.append(error)

    def python_in_collections(phase, info) -> None:
        sum(range(50))

    threads = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
    thresholds, interval = gc.get_threshold(), sys.getswitchinterval()
    gc.callbacks.append(python_in_collections)
    gc.set_threshold(50, 5, 5)
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
        gc.set_threshold(*thresholds)
        gc.callbacks.remove(python_in_collections)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
