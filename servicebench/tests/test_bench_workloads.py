"""Inputs are a pure function of the seed."""

import pytest

import layers
from workloads import WORKLOADS, op_class, schedule


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_is_determined_by_its_seed(name):
    w = WORKLOADS[name]
    first = schedule(w, 7, "main", w.rate, 5.0)
    again = schedule(w, 7, "main", w.rate, 5.0)
    other = schedule(w, 8, "main", w.rate, 5.0)
    key = [(r.due, r.op, r.tenant, r.path, r.body) for r in first]
    assert key == [(r.due, r.op, r.tenant, r.path, r.body) for r in again]
    assert key != [(r.due, r.op, r.tenant, r.path, r.body) for r in other]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_follows_rate_and_mix(name):
    w = WORKLOADS[name]
    requests = schedule(w, 1, "main", w.rate, 20.0)
    assert len(requests) == round(w.rate * 20.0)
    dues = [r.due for r in requests]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 20.0
    for klass in ("point", "model", "append"):
        share = sum(v for op, v in w.mix.items() if op_class(op) == klass)
        count = sum(r.klass == klass for r in requests)
        assert count == pytest.approx(share * len(requests), abs=3)


def test_paced_arrivals_are_evenly_spaced_and_the_seed_draws_the_requests():
    w = WORKLOADS["tenant-churn"]
    assert w.arrivals == "paced"
    first = schedule(w, 1, "main", w.rate, 5.0)
    other = schedule(w, 2, "main", w.rate, 5.0)
    gaps = {round(b.due - a.due, 9) for a, b in zip(first, first[1:])}
    assert gaps == {round(1.0 / w.rate, 9)}
    assert [r.due for r in first] == [r.due for r in other]
    assert [(r.op, r.tenant) for r in first] != [(r.op, r.tenant) for r in other]


def test_per_layer_metric_list_fits_the_contract():
    assert len(layers.PER_LAYER) <= 128
    assert all(len(name) <= 64 for name in layers.PER_LAYER)
