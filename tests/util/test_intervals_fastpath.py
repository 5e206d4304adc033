"""Exactness properties of the allocation fast-path scans.

The fast path of Alg. 2/3 replaces ``union → complement → fit`` with fused
single-pass scans (:func:`occupied_fit_end_pair`,
:func:`occupied_first_fit_pair`), the adaptive splice merge
(:func:`merge_boundaries`) and the commit splice
(:func:`splice_boundaries`).  Every one of them must agree with the literal
pipeline *float-for-float* — the reference oracle
(:mod:`repro.core.reference`) plans with the literal pipeline, and any
divergence here would surface as a different plan.

All values are on the plan grid, as every plan time is.  The strategies
deliberately land boundaries of the two operand lists zero to a few grid
units apart: intervals that touch must merge and a one-unit gap must stay
usable idle time, in the fused scans exactly as in the canonical merge.
"""

from unittest import mock

import pytest

from hypothesis import given, settings, strategies as st

import repro.util.intervals as kernels
from repro.util.intervals import (
    GRID,
    IntervalSet,
    _merge_union,
    merge_boundaries,
    occupied_first_fit_pair,
    occupied_fit_end_pair,
    splice_boundaries,
)

HORIZON = 2.0 ** 16  # always enough idle time: fits never raise against it


def grid_values(lo: float, hi: float):
    """Grid values in ``[lo, hi]`` seconds."""
    return st.integers(round(lo / GRID), round(hi / GRID)).map(lambda k: k * GRID)


# hairline coordinates: a coarse half-second grid plus 0–6 grid units, so
# two independently-canonical sets land boundaries zero to a few grid
# units apart — the regime where glue decisions are made
hairline = st.builds(
    lambda base, jitter: base * 0.5 + jitter * GRID,
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=6),
)

coords = st.one_of(grid_values(0.0, 60.0), hairline)


@st.composite
def intervals(draw):
    a = draw(coords)
    width = draw(st.one_of(
        grid_values(0.01, 15.0),
        st.integers(min_value=1, max_value=8).map(lambda k: k * GRID),
    ))
    return (a, a + width)


@st.composite
def interval_sets(draw):
    return IntervalSet(draw(st.lists(intervals(), max_size=10)))


durations = st.one_of(
    grid_values(0.05, 25.0),
    st.integers(min_value=1, max_value=4).map(lambda k: k * GRID),
)
releases = st.one_of(grid_values(0.0, 40.0), hairline)


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
    """The pair fit over one list (``b=[]``) is the literal first fit."""
    ref = occ.complement(lo, HORIZON).first_fit(duration, lo)
    got = IntervalSet._from_boundaries(
        occupied_first_fit_pair(occ._b, [], duration, lo, HORIZON))
    assert got._b == ref._b
    got.check_invariants()
    # books exactly the duration, in idle time only
    assert got.measure() == duration
    assert not got.intersection(occ)


def test_first_fit_keeps_one_grid_unit_gap():
    """A busy interval starting one grid unit after ``lo``: the complement
    keeps the one-unit idle gap in front of it, and the literal first fit
    uses it exactly as the fused scans do."""
    occ = IntervalSet([(1.0 + GRID, 2.0)])
    idle = occ.complement(1.0, HORIZON)
    assert idle._b[:2] == [1.0, 1.0 + GRID]
    expected = [1.0, 1.0 + GRID, 2.0, 3.0 - GRID]
    assert occupied_first_fit_pair(occ._b, [], 1.0, 1.0, HORIZON) == expected
    assert idle.first_fit(1.0, 1.0)._b == expected
    assert idle.idle_fit_end(1.0, 1.0) == expected[-1]
    assert occupied_fit_end_pair(occ._b, [], 1.0, 1.0, HORIZON) == expected[-1]


@given(interval_sets(), durations, releases,
       grid_values(0.0, 80.0))
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
    assert occupied_first_fit_pair(union._b, [], duration, lo, HORIZON)[-1] == ref


@given(interval_sets(), interval_sets(), durations, releases,
       grid_values(0.0, 80.0))
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
       grid_values(0.0, 120.0))
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
       grid_values(0.0, 120.0))
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
    """An interval the bisect skipped (it ends exactly at ``lo``) touches
    the other list's first interval, which starts at ``lo``: the union
    glues them, and the scan must not see an idle gap between them."""
    a = [0.0, 10.0]
    b = [10.0, 11.0]
    lo = 10.0
    union = IntervalSet._from_boundaries(merge_boundaries(a, b))
    assert union._b == [0.0, 11.0]
    ref = _literal_fit_end(union, 1.0, lo, HORIZON)
    assert ref == 12.0
    assert occupied_fit_end_pair(a, b, 1.0, lo, HORIZON) == ref
    assert occupied_fit_end_pair(b, a, 1.0, lo, HORIZON) == ref


def test_pair_scan_genuine_hairline_gap_is_kept():
    """A one-grid-unit joint gap stays usable; touching lists merge."""
    a = [0.0, 10.0]
    b = [10.0 + GRID, 11.0]
    union = IntervalSet._from_boundaries(merge_boundaries(a, b))
    assert len(union) == 2
    ref = _literal_fit_end(union, 5.0, 0.0, HORIZON)
    assert ref == 16.0 - GRID
    assert occupied_fit_end_pair(a, b, 5.0, 0.0, HORIZON) == ref
    assert merge_boundaries(a, [10.0, 11.0]) == [0.0, 11.0]
    assert occupied_fit_end_pair(a, [10.0, 11.0], 5.0, 0.0, HORIZON) == 16.0


def test_pair_scan_interleaved_exactness():
    """Alternating intervals from the two lists, zero to three grid units
    apart."""
    a, b = [], []
    t = 0.0
    for k in range(12):
        (a if k % 2 == 0 else b).extend((t, t + 0.5))
        t += 0.5 + (k % 4) * GRID
    union = IntervalSet._from_boundaries(merge_boundaries(a, b))
    for dur in (0.3, 1.0, 2.7):
        for lo in (0.0, 0.25, 1.0):
            ref = _literal_fit_end(union, dur, lo, HORIZON)
            assert occupied_fit_end_pair(a, b, dur, lo, HORIZON) == ref


# -- splice_boundaries -----------------------------------------------------


@st.composite
def gap_fillers(draw):
    """A set ``a`` and a boundary list ``b`` of intervals inside ``a``'s
    gaps, each touching the gap's left and/or right end or neither."""
    a = draw(interval_sets())
    b: list[float] = []
    for gs, ge in a.complement(0.0, 80.0):
        if not draw(st.booleans()):
            continue
        lo_k, hi_k = round(gs / GRID), round(ge / GRID)
        ks = draw(st.integers(lo_k, hi_k - 1))
        ke = draw(st.integers(ks + 1, hi_k))
        if draw(st.booleans()):
            ks = lo_k
        if draw(st.booleans()):
            ke = hi_k
        b += (ks * GRID, ke * GRID)
    return a, b


def _splice_counting_fallbacks(a, b):
    with mock.patch.object(kernels, "merge_boundaries",
                           wraps=kernels.merge_boundaries) as fallback:
        out = splice_boundaries(a, b)
    return out, fallback.call_count


@given(gap_fillers())
@settings(max_examples=200)
def test_splice_into_gaps_equals_merge(case):
    """Slices in the gaps splice without the fallback, coalescing every
    end they touch, and equal the general merge exactly."""
    a, b = case
    out, fallbacks = _splice_counting_fallbacks(a._b, b)
    assert out == merge_boundaries(a._b, b) == _merge_union(a._b, b)
    assert fallbacks == (0 if a and b else 1)
    IntervalSet._from_boundaries(out).check_invariants()


@given(interval_sets(), interval_sets())
def test_splice_takes_the_fallback_exactly_on_overlap(a, b):
    out, fallbacks = _splice_counting_fallbacks(a._b, b._b)
    assert out == _merge_union(a._b, b._b)
    overlaps = bool(a.intersection(b))
    assert fallbacks == (1 if overlaps or not (a and b) else 0)


def test_splice_coalesces_touching_ends():
    a = [0.0, 1.0, 3.0, 4.0]
    assert splice_boundaries(a, [1.0, 3.0]) == [0.0, 4.0]
    assert splice_boundaries(a, [1.0, 2.0]) == [0.0, 2.0, 3.0, 4.0]
    assert splice_boundaries(a, [2.0, 3.0]) == [0.0, 1.0, 2.0, 4.0]
    assert splice_boundaries(a, [-2.0, -1.0, 5.0, 6.0]) == [
        -2.0, -1.0, 0.0, 1.0, 3.0, 4.0, 5.0, 6.0]
    assert splice_boundaries(a, [1.0 + GRID, 3.0 - GRID]) == [
        0.0, 1.0, 1.0 + GRID, 3.0 - GRID, 3.0, 4.0]
    assert splice_boundaries(a, [0.5, 2.0]) == [0.0, 2.0, 3.0, 4.0]
    assert a == [0.0, 1.0, 3.0, 4.0]  # the input is never mutated


# -- occupied_first_fit_pair -----------------------------------------------


@given(interval_sets(), interval_sets(), durations, releases,
       st.one_of(st.just(HORIZON), grid_values(0.0, 80.0)))
@settings(max_examples=300)
def test_occupied_first_fit_pair_matches_merged_set(a, b, duration, lo, hi):
    """The fused pair fit is the merged list's one-list fit boundary for
    boundary, which is the literal complement → first fit, and fails with
    the same ``ValueError``."""
    union = IntervalSet._from_boundaries(merge_boundaries(a._b, b._b))
    try:
        ref = occupied_first_fit_pair(union._b, [], duration, lo, hi)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            occupied_first_fit_pair(a._b, b._b, duration, lo, hi)
        assert str(got.value) == str(exc)
        with pytest.raises(ValueError):
            union.complement(lo, hi).first_fit(duration, lo)
    else:
        assert occupied_first_fit_pair(a._b, b._b, duration, lo, hi) == ref
        literal = union.complement(lo, hi).first_fit(duration, lo)
        assert ref == literal._b


def test_occupied_first_fit_pair_keeps_one_grid_unit_gap():
    a = [0.0, 10.0]
    b = [10.0 + GRID, 11.0]
    assert occupied_first_fit_pair(a, b, 5.0, 0.0, HORIZON) == [
        10.0, 10.0 + GRID, 11.0, 16.0 - GRID]
    assert occupied_first_fit_pair(a, [10.0, 11.0], 5.0, 0.0, HORIZON) == [
        11.0, 16.0]
