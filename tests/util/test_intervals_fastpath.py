"""Exactness properties of the allocation fast-path scans.

The fast path of Alg. 2/3 replaces ``union → complement → fit`` with fused
single-pass scans (:func:`occupied_fit_end_pair`,
:meth:`IntervalSet.occupied_first_fit`) and the adaptive splice merge
(:func:`merge_boundaries`).  Every one of them must agree with the literal
pipeline *float-for-float* — the reference oracle
(:mod:`repro.core.reference`) plans with the literal pipeline, and any
divergence here would surface as a different plan.

The strategies deliberately include EPS-hairline geometry (boundaries a
fraction of EPS apart across the two operand lists) because that is where
the fused scans' glue predicates can drift from the canonical merge.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.util.intervals import (
    EPS,
    IntervalSet,
    _merge_union,
    merge_boundaries,
    occupied_fit_end_pair,
)

HORIZON = 1e6  # always enough idle time: fits never raise against it

coarse = st.floats(min_value=0.0, max_value=60.0,
                   allow_nan=False, allow_infinity=False)

# EPS-hairline coordinates: a coarse grid plus jitter of 0–3 EPS, so two
# independently-canonical sets land boundaries within fractions of EPS of
# each other — the regime where glue decisions are made.
hairline = st.builds(
    lambda base, jitter: base * 0.5 + jitter * (EPS / 2.0),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=6),
)

coords = st.one_of(coarse, hairline)


@st.composite
def intervals(draw):
    a = draw(coords)
    width = draw(st.one_of(
        st.floats(min_value=0.01, max_value=15.0),
        st.integers(min_value=3, max_value=8).map(lambda k: k * (EPS / 2.0)),
    ))
    return (a, a + width)


@st.composite
def interval_sets(draw):
    return IntervalSet(draw(st.lists(intervals(), max_size=10)))


durations = st.floats(min_value=0.05, max_value=25.0)
releases = st.floats(min_value=0.0, max_value=40.0)


# -- merge_boundaries ------------------------------------------------------


@given(interval_sets(), interval_sets())
def test_merge_boundaries_equals_sweep(a, b):
    """The splice merge is float-identical to the two-pointer sweep."""
    assert merge_boundaries(a._b, b._b) == _merge_union(a._b, b._b)


@given(interval_sets(), st.lists(intervals(), min_size=8, max_size=20))
def test_merge_boundaries_splice_branch(a, many):
    """Force the asymmetric splice branch (one side much longer)."""
    big = IntervalSet(many)
    small = a
    assert merge_boundaries(big._b, small._b) == _merge_union(big._b, small._b)
    assert merge_boundaries(small._b, big._b) == _merge_union(small._b, big._b)


# -- fused occupied-set scans ---------------------------------------------


def _literal_fit_end(occ: IntervalSet, duration, lo, hi):
    """Alg. 3's completion read literally: complement, then fit."""
    return occ.complement(lo, hi).idle_fit_end(duration, lo)


@given(interval_sets(), durations, releases)
@settings(max_examples=200)
def test_occupied_fit_end_matches_reference(occ, duration, lo):
    """The pair scan over one list (``b=[]``) is the literal fit."""
    ref = _literal_fit_end(occ, duration, lo, HORIZON)
    assert occupied_fit_end_pair(occ._b, [], duration, lo, HORIZON) == ref


@given(interval_sets(), durations, releases)
@settings(max_examples=200)
def test_occupied_first_fit_matches_reference(occ, duration, lo):
    ref = occ.complement(lo, HORIZON).first_fit(duration, lo)
    got = occ.occupied_first_fit(duration, lo, HORIZON)
    assert got._b == ref._b


def test_first_fit_keeps_one_ulp_hairline_gap():
    """A busy interval starting one EPS-and-an-ulp after ``lo``: the
    complement keeps the hairline idle gap in front of it
    (``s - lo > EPS``), and the literal first fit must use it exactly as
    the fused scan does, although ``s <= lo + EPS`` after rounding."""
    occ = IntervalSet([(1.000000001, 2.0)])
    idle = occ.complement(1.0, HORIZON)
    assert idle._b[:2] == [1.0, 1.000000001]
    expected = [1.0, 1.000000001, 2.0, 2.999999999]
    assert occ.occupied_first_fit(1.0, 1.0, HORIZON)._b == expected
    assert idle.first_fit(1.0, 1.0)._b == expected
    assert idle.idle_fit_end(1.0, 1.0) == expected[-1]
    assert occupied_fit_end_pair(occ._b, [], 1.0, 1.0, HORIZON) == expected[-1]


@given(interval_sets(), durations, releases,
       st.floats(min_value=0.0, max_value=80.0))
def test_occupied_fit_end_raises_with_reference(occ, duration, lo, hi):
    """Tight horizons: the fused scan fails exactly when the reference does."""
    try:
        ref = _literal_fit_end(occ, duration, lo, hi)
    except ValueError:
        with pytest.raises(ValueError):
            occupied_fit_end_pair(occ._b, [], duration, lo, hi)
    else:
        assert occupied_fit_end_pair(occ._b, [], duration, lo, hi) == ref


@given(interval_sets(), interval_sets(), durations, releases)
@settings(max_examples=300)
def test_pair_scan_matches_union_fit(a, b, duration, lo):
    """occupied_fit_end_pair == merge the lists, then fit — exactly."""
    union = IntervalSet._from_boundaries(merge_boundaries(a._b, b._b))
    ref = _literal_fit_end(union, duration, lo, HORIZON)
    assert occupied_fit_end_pair(a._b, b._b, duration, lo, HORIZON) == ref


@given(interval_sets(), interval_sets(), durations, releases,
       st.floats(min_value=0.0, max_value=80.0))
def test_pair_scan_raises_with_union(a, b, duration, lo, hi):
    union = IntervalSet._from_boundaries(merge_boundaries(a._b, b._b))
    try:
        ref = _literal_fit_end(union, duration, lo, hi)
    except ValueError:
        with pytest.raises(ValueError):
            occupied_fit_end_pair(a._b, b._b, duration, lo, hi)
    else:
        assert occupied_fit_end_pair(a._b, b._b, duration, lo, hi) == ref


# -- stop_at abort contract ------------------------------------------------


@given(interval_sets(), durations, releases,
       st.floats(min_value=0.0, max_value=120.0))
def test_occupied_fit_end_stop_at_contract(occ, duration, lo, stop_at):
    """stop_at never changes a winning result; losers report >= stop_at.

    A completion strictly below ``stop_at`` must come back exact; one at or
    above it may come back as either the exact value or ``inf`` (the abort
    fires only when the scan proves the bound mid-walk) — both compare
    identically against a best-so-far of ``stop_at``.
    """
    exact = occupied_fit_end_pair(occ._b, [], duration, lo, HORIZON)
    got = occupied_fit_end_pair(occ._b, [], duration, lo, HORIZON,
                                stop_at=stop_at)
    if exact < stop_at:
        assert got == exact
    else:
        assert got == exact or got == float("inf")
        assert got >= stop_at


@given(interval_sets(), interval_sets(), durations, releases,
       st.floats(min_value=0.0, max_value=120.0))
def test_pair_scan_stop_at_contract(a, b, duration, lo, stop_at):
    exact = occupied_fit_end_pair(a._b, b._b, duration, lo, HORIZON)
    got = occupied_fit_end_pair(a._b, b._b, duration, lo, HORIZON,
                                stop_at=stop_at)
    if exact < stop_at:
        assert got == exact
    else:
        assert got == exact or got == float("inf")
        assert got >= stop_at


# -- deterministic hairline regressions -----------------------------------


def test_pair_scan_head_glue_suppresses_phantom_gap():
    """An interval the bisect skipped (ends within EPS past ``lo``) can
    still glue to the other list's first interval; the scan must not count
    the sub-2·EPS sliver between them as an idle gap, exactly as the
    canonical merge would not."""
    a = [0.0, 10.0 + 0.5 * EPS]       # skipped: ends at lo + 0.5 EPS
    b = [10.0 + 1.2 * EPS, 11.0]      # gap from lo is 1.2 EPS > EPS ...
    lo = 10.0
    # ... but merge glues them (1.2 EPS start <= 0.5 EPS end + EPS):
    union = IntervalSet._from_boundaries(merge_boundaries(a, b))
    assert len(union) == 1
    ref = _literal_fit_end(union, 1.0, lo, HORIZON)
    assert occupied_fit_end_pair(a, b, 1.0, lo, HORIZON) == ref
    assert ref == pytest.approx(12.0, abs=1e-6)


def test_pair_scan_genuine_hairline_gap_is_kept():
    """A joint gap wider than EPS that no glue covers stays usable."""
    a = [0.0, 10.0]
    b = [10.0 + 3.0 * EPS, 11.0]
    union = IntervalSet._from_boundaries(merge_boundaries(a, b))
    ref = _literal_fit_end(union, 5.0, 0.0, HORIZON)
    assert occupied_fit_end_pair(a, b, 5.0, 0.0, HORIZON) == ref


def test_pair_scan_interleaved_exactness():
    """Alternating intervals from the two lists, fractional-EPS spacing."""
    a, b = [], []
    t = 0.0
    for k in range(12):
        (a if k % 2 == 0 else b).extend((t, t + 0.5))
        t += 0.5 + (k % 4) * (EPS / 2.0)
    union = IntervalSet._from_boundaries(merge_boundaries(a, b))
    for dur in (0.3, 1.0, 2.7):
        for lo in (0.0, 0.25, 1.0):
            ref = _literal_fit_end(union, dur, lo, HORIZON)
            assert occupied_fit_end_pair(a, b, dur, lo, HORIZON) == ref
