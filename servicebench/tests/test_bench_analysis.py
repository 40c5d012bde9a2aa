"""Percentile rule, staleness, self time and attribution arithmetic."""

import pytest

import analysis
from analysis import Ack, Answer, Span


@pytest.mark.parametrize("q, needed", [(50, 20), (90, 100), (95, 200), (99, 1000)])
def test_samples_needed_leaves_ten_beyond(q, needed):
    assert analysis.samples_needed(q) == needed
    assert len(range(needed)) - analysis.rank(needed, q) == 10


def test_percentile_refuses_too_few_samples_beyond():
    values = list(range(1, 1000))  # 999 samples: only 9 beyond p99
    with pytest.raises(analysis.InsufficientSamples):
        analysis.percentile(values, 99)
    assert analysis.percentile(values + [1000], 99) == 990


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4  # 20 samples, 10 beyond p50
    assert analysis.percentile(values, 50) == 3.0
    assert analysis.percentile([], 99, strict=False) == 0.0


def test_staleness_on_a_synthetic_timeline():
    # Base 100 rows; 4-row batches acknowledged at t=1.0 and t=2.0.
    acks = [Ack(2.0, 4), Ack(1.0, 4)]
    answers = [
        Answer(0.5, 100),  # nothing acknowledged yet: fresh
        Answer(1.5, 100),  # lacks batch 1, acknowledged 0.5 s earlier
        Answer(1.8, 104),  # includes batch 1: fresh
        Answer(2.5, 104),  # lacks batch 2, acknowledged 0.5 s earlier
        Answer(2.6, 100),  # lacks both: timed from the earliest, batch 1
        Answer(3.0, 108),  # includes both: fresh
    ]
    assert analysis.staleness(100, acks, answers) == pytest.approx(
        [0.0, 0.5, 0.0, 0.5, 1.6, 0.0]
    )


def test_rows_acknowledged_after_the_answer_do_not_make_it_stale():
    acks = [Ack(1.0, 2)]
    assert analysis.staleness(100, acks, [Answer(0.9, 100), Answer(0.95, 102)]) == [
        0.0,
        0.0,
    ]


def _span(id, name, start, end, parent=None, request="r1", thread=1, **args):
    return Span(id, parent, request, thread, name, start, end, args)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, "http.handle", 0.0, 10.0),
        _span(2, "service.query.similarity", 1.0, 9.0, parent=1),
        _span(3, "engine.query.similarity", 2.0, 8.0, parent=2),
        _span(4, "core.classify", 3.0, 4.0, parent=3),
    ]
    own = analysis.self_times(spans)
    assert own == pytest.approx({1: 2.0, 2: 2.0, 3: 5.0, 4: 1.0})
    assert sum(own.values()) == pytest.approx(spans[0].duration)


def test_appends_pair_first_in_first_out_per_tenant():
    spans = [
        _span(1, "service.append", 0.0, 5.0, request="a", tenant="t"),
        _span(2, "service.append", 0.1, 6.0, request="b", tenant="t"),
        _span(3, "service.append", 0.2, 3.0, request="c", tenant="u"),
        _span(4, "storage.append", 1.0, 2.0, request=None, thread=7, tenant="t"),
        _span(5, "storage.append", 1.5, 2.5, request=None, thread=8, tenant="u"),
        _span(6, "storage.append", 2.0, 4.0, request=None, thread=7, tenant="t"),
    ]
    analysis.pair_appends(spans)
    assert [(s.parent, s.request) for s in spans[3:]] == [(1, "a"), (3, "c"), (2, "b")]
    own = analysis.self_times(spans)
    assert own[1] == pytest.approx(4.0)  # queue wait: 5 s minus the 1 s append


def test_attribution_accounts_for_the_mean_latency():
    # Two requests of 20 ms and 40 ms; the server spans cover 6 ms of the
    # first and 10 ms of the second.
    spans = [
        _span(1, "http.handle", 0.000, 0.006, request="x"),
        _span(2, "service.query.similarity", 0.001, 0.005, request="x", parent=1),
        _span(3, "http.handle", 0.100, 0.110, request="y"),
        _span(4, "service.query.similarity", 0.102, 0.108, request="y", parent=3),
    ]
    means, unattributed = analysis.attribution({"x": 0.020, "y": 0.040}, spans)
    assert means == pytest.approx({"serve.http": 0.003, "serve.service": 0.005})
    mean_latency = 0.030
    assert unattributed == pytest.approx((mean_latency - 0.008) / mean_latency)
    assert sum(means.values()) + unattributed * mean_latency == pytest.approx(
        mean_latency
    )
