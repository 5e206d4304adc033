"""MetricsRegistry instruments: counters and histograms.

The load-bearing property: histogram quantiles on the one fixed bucket
layout land within one bucket of exact numpy percentiles — the guarantee
the ``repro-taps stats`` percentiles rest on.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    BUCKETS,
    GROWTH,
    LO,
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
    assert snap == {"kind": "counter", "name": "x/events", "value": 5}


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("thing")
    with pytest.raises(TypeError, match="already registered as counter"):
        reg.histogram("thing")


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
    assert reg.get("span/run/arrival").count == 2
    assert reg.spans.current_path == ""


def test_span_records_on_exception():
    reg = MetricsRegistry()
    with pytest.raises(RuntimeError):
        with reg.spans.span("boom"):
            raise RuntimeError()
    assert reg.get("span/boom").count == 1
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
    top = LO * GROWTH ** BUCKETS  # upper edge of the last log bucket
    h = Histogram("h")
    h.observe(LO / 2)     # underflow
    h.observe(top * 2)    # overflow
    assert len(h.counts) == BUCKETS + 2
    assert h.counts[0] == 1 and h.counts[-1] == 1
    assert h.quantile(1.0) == top * 2  # overflow quantile = observed max
    snap = h.snapshot()
    assert sum(snap["counts"]) == snap["count"] == 2


def _bucket_index(v: float) -> int:
    """Which (padded) bucket a value falls into, mirroring observe()."""
    return bisect_right([LO * GROWTH ** i for i in range(BUCKETS + 1)], v)


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
    assert abs(_bucket_index(est) - _bucket_index(exact)) <= 1
    # and therefore within ~one growth factor in value
    assert est <= exact * GROWTH * (1 + 1e-9) + 1e-12
    assert est >= exact / GROWTH * (1 - 1e-9) - 1e-12
    assert min(values) <= est <= max(values)

