"""MetricsRegistry instruments: counters, gauges, histograms, merging.

The load-bearing properties: histogram quantiles land within one bucket
of exact numpy percentiles, and snapshot merging is an associative,
commutative monoid fold — the guarantees the parallel sweep aggregation
and the ``repro-taps stats`` percentiles rest on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    DEFAULT_GROWTH,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import span_tree


def test_counter_accumulates_and_snapshots():
    reg = MetricsRegistry()
    c = reg.counter("x/events")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert reg.counter("x/events") is c  # get-or-create
    snap = c.snapshot()
    assert snap == {"kind": "counter", "name": "x/events",
                    "labels": {}, "value": 5}


def test_gauge_tracks_value_and_peak():
    reg = MetricsRegistry()
    g = reg.gauge("queue")
    g.set(3.0)
    g.set(9.0)
    g.set(1.0)
    assert g.value == 1.0 and g.max == 9.0


def test_labels_distinguish_series_and_order_is_irrelevant():
    reg = MetricsRegistry()
    a = reg.counter("net/util", {"link": "1", "src": "h0"})
    b = reg.counter("net/util", {"src": "h0", "link": "1"})
    c = reg.counter("net/util", {"link": "2", "src": "h0"})
    assert a is b and a is not c
    assert len(reg) == 2


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("thing")
    with pytest.raises(TypeError, match="already registered as counter"):
        reg.gauge("thing")


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("")


def test_span_nesting_builds_hierarchical_names():
    reg = MetricsRegistry()
    with reg.spans.span("run"):
        with reg.spans.span("arrival"):
            pass
        with reg.spans.span("arrival"):
            pass
    names = [h.name for h in reg.instruments()]
    assert names == ["span/run", "span/run/arrival"]
    assert reg.find("span/run/arrival")[0].count == 2
    assert reg.spans.current_path == ""


def test_span_records_on_exception():
    reg = MetricsRegistry()
    with pytest.raises(RuntimeError):
        with reg.spans.span("boom"):
            raise RuntimeError()
    assert reg.find("span/boom")[0].count == 1
    assert reg.spans.current_path == ""  # stack unwound


def test_span_tree_reads_only_span_timers_in_path_order():
    reg = MetricsRegistry()
    reg.histogram("controller/admission_latency_seconds").observe(1.0)
    with reg.spans.span("run"):
        for _ in range(3):
            with reg.spans.span("rates"):
                pass
        with reg.spans.span("arrival"):
            pass
    tree = span_tree(reg)
    assert list(tree) == ["run", "run/arrival", "run/rates"]
    run = reg.get("span/run")
    assert tree["run"] == (1, run.sum)
    assert tree["run/rates"][0] == 3
    assert span_tree(MetricsRegistry()) == {}


def test_histogram_quantile_empty_and_bounds():
    h = Histogram("h")
    assert h.quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)
    h.observe(0.01)
    assert h.quantile(0.0) == pytest.approx(0.01)
    assert h.quantile(1.0) == pytest.approx(0.01)


def test_histogram_overflow_underflow():
    h = Histogram("h", lo=1.0, growth=2.0, buckets=4)  # covers [1, 16)
    h.observe(0.5)     # underflow
    h.observe(100.0)   # overflow
    assert h.counts[0] == 1 and h.counts[-1] == 1
    assert h.quantile(1.0) == 100.0  # overflow quantile = observed max
    snap = h.snapshot()
    assert sum(snap["counts"]) == snap["count"] == 2


def _bucket_index(h: Histogram, v: float) -> int:
    """Which (padded) bucket a value falls into, mirroring observe()."""
    from bisect import bisect_right

    return bisect_right(h._edges, v)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=1e-6, max_value=1e4,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=300,
    ),
    q=st.sampled_from([0.5, 0.9, 0.99]),
)
def test_quantile_within_one_bucket_of_numpy(values, q):
    """p50/p90/p99 estimates land in (or adjacent to) the bucket holding
    the exact numpy percentile — the histogram's advertised contract.

    ``inverted_cdf`` makes numpy return an actual order statistic (the
    same rank convention the histogram walk uses); the default linear
    interpolation invents values between observations, which can sit
    arbitrarily many buckets away from any sample.
    """
    h = Histogram("h")
    for v in values:
        h.observe(v)
    est = h.quantile(q)
    exact = float(np.percentile(values, q * 100, method="inverted_cdf"))
    assert abs(_bucket_index(h, est) - _bucket_index(h, exact)) <= 1
    # and therefore within ~one growth factor in value
    assert est <= exact * DEFAULT_GROWTH * (1 + 1e-9) + 1e-12
    assert est >= exact / DEFAULT_GROWTH * (1 - 1e-9) - 1e-12
    assert min(values) <= est <= max(values)


def test_histogram_merge_layout_mismatch_raises():
    a = Histogram("h")
    b = Histogram("h", lo=1.0, growth=2.0, buckets=8)
    with pytest.raises(ValueError, match="incompatible bucket layout"):
        a.merge(b.snapshot())


def _random_registry(rng) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("c").inc(int(rng.integers(0, 100)))
    reg.counter("labeled", {"k": str(rng.integers(0, 3))}).inc(1)
    reg.gauge("g").set(float(rng.uniform(-5, 5)))
    h = reg.histogram("h")
    for v in rng.uniform(1e-6, 10.0, size=int(rng.integers(0, 40))):
        h.observe(float(v))
    return reg


def _assert_snapshots_equal(a, b):
    """Exact equality, except histogram ``sum`` gets a tolerance.

    Counts, gauge values (pure max), and histogram min/max merge exactly
    in any order; the float ``sum`` accumulator is order-sensitive in its
    last bits because float addition is not associative.
    """
    assert len(a) == len(b)
    for x, y in zip(a, b):
        xs, ys = dict(x), dict(y)
        if xs["kind"] == "histogram":
            assert xs.pop("sum") == pytest.approx(ys.pop("sum"))
        assert xs == ys


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_merge_is_associative_and_commutative(seed):
    """fold(A, B, C) equals fold(C, A, B) etc. — snapshots are a
    commutative monoid, so worker completion order cannot matter."""
    rng = np.random.default_rng(seed)
    snaps = [_random_registry(rng).snapshot() for _ in range(3)]

    def fold(order):
        acc = MetricsRegistry()
        for i in order:
            acc.merge_snapshot(snaps[i])
        return acc.snapshot()

    baseline = fold([0, 1, 2])
    for order in ([2, 1, 0], [1, 0, 2], [0, 2, 1]):
        _assert_snapshots_equal(fold(order), baseline)
    # associativity: (A+B)+C == A+(B+C) via pre-merged intermediate
    ab = MetricsRegistry()
    ab.merge_snapshot(snaps[0])
    ab.merge_snapshot(snaps[1])
    abc = MetricsRegistry()
    abc.merge_snapshot(ab.snapshot())
    abc.merge_snapshot(snaps[2])
    _assert_snapshots_equal(abc.snapshot(), baseline)


def test_merge_identity_element():
    reg = _random_registry(np.random.default_rng(7))
    out = MetricsRegistry()
    out.merge_snapshot(MetricsRegistry().snapshot())  # empty = identity
    out.merge_snapshot(reg.snapshot())
    assert out.snapshot() == reg.snapshot()


def test_merged_histogram_quantiles_match_combined_stream():
    rng = np.random.default_rng(3)
    a, b = Histogram("h"), Histogram("h")
    va = rng.uniform(1e-5, 1.0, 200)
    vb = rng.uniform(1e-3, 100.0, 300)
    for v in va:
        a.observe(float(v))
    for v in vb:
        b.observe(float(v))
    combined = Histogram("h")
    for v in list(va) + list(vb):
        combined.observe(float(v))
    a.merge(b.snapshot())
    assert a.counts == combined.counts
    assert a.count == combined.count
    assert a.quantile(0.5) == combined.quantile(0.5)
    assert a.quantile(0.99) == combined.quantile(0.99)
    assert math.isclose(a.sum, combined.sum)
