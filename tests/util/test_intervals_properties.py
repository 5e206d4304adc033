"""Property-based tests for IntervalSet.

The occupancy ledger is the load-bearing data structure of TAPS Alg. 3;
these properties pin down the algebra it relies on: canonical form after
arbitrary mutation, measure conservation, complement duality, and the
first-fit contract (earliest-possible, exact-duration, inside-idle).
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.util.intervals import EPS, IntervalSet, union_all

# intervals comfortably wider than EPS so merging semantics are unambiguous
coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw):
    a = draw(coords)
    width = draw(st.floats(min_value=0.01, max_value=20.0))
    return (a, a + width)


@st.composite
def interval_sets(draw):
    return IntervalSet(draw(st.lists(intervals(), max_size=12)))


@given(interval_sets())
def test_canonical_form(s):
    s.check_invariants()


@given(interval_sets(), intervals())
def test_add_preserves_invariants_and_grows(s, iv):
    before = s.measure()
    s.add(*iv)
    s.check_invariants()
    assert s.measure() >= before - 1e-9
    assert s.measure() <= before + (iv[1] - iv[0]) + 1e-9


@given(interval_sets(), intervals())
def test_subtract_preserves_invariants_and_shrinks(s, iv):
    before = s.measure()
    s.subtract(*iv)
    s.check_invariants()
    assert s.measure() <= before + 1e-9
    assert not s.overlaps(*iv)


@given(interval_sets(), interval_sets())
def test_union_commutative(a, b):
    assert a.union(b) == b.union(a)


@given(interval_sets(), interval_sets())
def test_union_measure_bounds(a, b):
    u = a.union(b)
    u.check_invariants()
    assert u.measure() >= max(a.measure(), b.measure()) - 1e-9
    assert u.measure() <= a.measure() + b.measure() + 1e-9


@given(interval_sets(), interval_sets())
def test_inclusion_exclusion(a, b):
    u, i = a.union(b), a.intersection(b)
    assert u.measure() + i.measure() == pytest.approx(a.measure() + b.measure(), abs=1e-6)


@given(interval_sets(), interval_sets())
def test_intersection_subset_of_both(a, b):
    i = a.intersection(b)
    for s, e in i:
        mid = (s + e) / 2
        assert a.contains(mid)
        assert b.contains(mid)


@given(interval_sets())
def test_complement_duality(s):
    lo, hi = -1.0, 150.0
    idle = s.complement(lo, hi)
    # idle and occupied partition the window (up to EPS slivers)
    clipped = s.intersection(IntervalSet.single(lo, hi))
    assert idle.measure() + clipped.measure() == \
        pytest.approx(hi - lo, abs=1e-5)
    assert idle.intersection(clipped).measure() < 1e-6


@given(st.lists(interval_sets(), max_size=6))
def test_union_all_equals_pairwise(sets):
    folded = IntervalSet()
    for s in sets:
        folded = folded.union(s)
    assert union_all(sets) == folded


@given(
    interval_sets(),
    st.floats(min_value=0.05, max_value=30.0),
    st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=200)
def test_first_fit_contract(occ, duration, after):
    """first_fit over the complement: exact duration, inside idle time,
    nothing usable earlier, completion matches idle_fit_end."""
    horizon = 500.0  # always enough idle in [after, horizon)
    idle = occ.complement(0.0, horizon)
    slices = idle.first_fit(duration, after)
    slices.check_invariants()
    # exact duration
    assert slices.measure() == pytest.approx(duration, abs=1e-6)
    # nothing before `after`
    assert slices.start() >= after - EPS
    # every slice lies in idle time (never overlaps occupancy)
    assert occ.intersection(slices).measure() < 1e-6
    # greedy-earliest: completion equals the oracle
    assert slices.end() == pytest.approx(
        idle.idle_fit_end(duration, after), abs=1e-6
    )
    # greedy-earliest, stronger: no idle gap before the first slice start
    # is left unused (the first slice starts at the first idle point >= after)
    first_start = slices.start()
    probe = idle.intersection(IntervalSet.single(after, first_start))
    assert probe.measure() < 1e-6


@given(interval_sets(), st.floats(min_value=-5, max_value=120))
def test_next_boundary_is_a_boundary(s, t):
    b = s.next_boundary(t)
    if b is None:
        flat = [x for iv in s for x in iv]
        assert all(x <= t + EPS for x in flat)
    else:
        assert b > t
        flat = [x for iv in s for x in iv]
        assert any(abs(b - x) < 1e-12 for x in flat)


@given(interval_sets(), st.floats(min_value=-5, max_value=120),
       st.sampled_from([0.0, -EPS, EPS, 2 * EPS]))
def test_locate_matches_linear_scan(s, t, nudge):
    """``locate``/``contains``/``next_boundary`` agree with a scan over
    the intervals, also right at a boundary (``t`` nudged onto one)."""
    flat = [x for iv in s for x in iv]
    if flat:
        t = min(flat, key=lambda x: abs(x - t)) + nudge
    inside = any(a <= t < b for a, b in s)
    after = [x for x in flat if x > t]
    assert s.locate(t) == (inside, after[0] if after else None)
    assert s.contains(t) is inside
    later = [x for x in flat if x > t + EPS]
    assert s.next_boundary(t) == (later[0] if later else None)


@given(interval_sets(), intervals())
def test_contains_consistent_with_overlaps(s, iv):
    mid = (iv[0] + iv[1]) / 2
    if s.contains(mid):
        assert s.overlaps(*iv)
