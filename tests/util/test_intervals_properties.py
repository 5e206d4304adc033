"""Property-based tests for IntervalSet.

The occupancy ledger is the load-bearing data structure of TAPS Alg. 3;
these properties pin down the algebra it relies on: canonical form after
arbitrary mutation, measure conservation, complement duality, and the
first-fit contract (earliest-possible, exact-duration, inside-idle).

Values are on the plan grid, as every plan time is, so each property
holds exactly.  Coordinates include a coarse grid plus a few grid units,
so boundaries of different intervals often touch or sit one unit apart.
"""

from hypothesis import given, settings, strategies as st

from repro.util.intervals import GRID, IntervalSet, union_all


def grid_values(lo: float, hi: float):
    """Grid values in ``[lo, hi]`` seconds."""
    return st.integers(round(lo / GRID), round(hi / GRID)).map(lambda k: k * GRID)


coords = st.one_of(
    grid_values(0.0, 100.0),
    st.builds(lambda base, units: base + units * GRID,
              st.integers(0, 100), st.integers(-2, 2)),
)


@st.composite
def intervals(draw):
    a = draw(coords)
    width = draw(st.one_of(
        grid_values(0.01, 20.0),
        st.integers(1, 3).map(lambda k: k * GRID),
    ))
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
    assert before <= s.measure() <= before + (iv[1] - iv[0])


@given(interval_sets(), intervals())
def test_subtract_preserves_invariants_and_shrinks(s, iv):
    """``s`` minus ``iv``, as Alg. 3 subtracts: intersect with the
    complement."""
    lo, hi = -1.0, 150.0
    rest = s.intersection(IntervalSet.single(*iv).complement(lo, hi))
    rest.check_invariants()
    assert rest.measure() <= s.measure()
    assert not rest.intersection(IntervalSet.single(*iv))


@given(interval_sets(), interval_sets())
def test_union_commutative(a, b):
    assert a.union(b) == b.union(a)


@given(interval_sets(), interval_sets())
def test_union_measure_bounds(a, b):
    u = a.union(b)
    u.check_invariants()
    assert max(a.measure(), b.measure()) <= u.measure()
    assert u.measure() <= a.measure() + b.measure()


@given(interval_sets(), interval_sets())
def test_inclusion_exclusion(a, b):
    u, i = a.union(b), a.intersection(b)
    i.check_invariants()
    assert u.measure() + i.measure() == a.measure() + b.measure()


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
    idle.check_invariants()
    # idle and occupied partition the window
    clipped = s.intersection(IntervalSet.single(lo, hi))
    assert idle.measure() + clipped.measure() == hi - lo
    assert not idle.intersection(clipped)
    assert idle.union(clipped) == IntervalSet.single(lo, hi)


@given(st.lists(interval_sets(), max_size=6))
def test_union_all_equals_pairwise(sets):
    folded = IntervalSet()
    for s in sets:
        folded = folded.union(s)
    assert union_all(sets) == folded


@given(
    interval_sets(),
    st.one_of(grid_values(0.05, 30.0), st.integers(1, 3).map(lambda k: k * GRID)),
    coords,
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
    assert slices.measure() == duration
    # nothing before `after`
    assert slices.start() >= after
    # every slice lies in idle time (never overlaps occupancy)
    assert not occ.intersection(slices)
    # greedy-earliest: completion equals the oracle
    assert slices.end() == idle.idle_fit_end(duration, after)
    # greedy-earliest, stronger: no idle gap before the first slice start
    # is left unused (the first slice starts at the first idle point >= after)
    first_start = slices.start()
    assert not idle.intersection(IntervalSet.single(after, first_start))


@given(interval_sets(), st.floats(min_value=-5, max_value=120))
def test_next_boundary_is_a_boundary(s, t):
    b = s.next_boundary(t)
    flat = [x for iv in s for x in iv]
    if b is None:
        assert all(x <= t for x in flat)
    else:
        assert b > t
        assert b in flat


@given(interval_sets(), st.floats(min_value=-5, max_value=120),
       st.sampled_from([0.0, -GRID, GRID]))
def test_locate_matches_linear_scan(s, t, nudge):
    """``locate``/``contains``/``next_boundary`` agree with a scan over
    the intervals, also right at a boundary (``t`` nudged onto one or one
    grid unit to either side)."""
    flat = [x for iv in s for x in iv]
    if flat:
        t = min(flat, key=lambda x: abs(x - t)) + nudge
    inside = any(a <= t < b for a, b in s)
    after = [x for x in flat if x > t]
    assert s.locate(t) == (inside, after[0] if after else None)
    assert s.contains(t) is inside
    assert s.next_boundary(t) == (after[0] if after else None)


@given(interval_sets(), intervals())
def test_contains_consistent_with_overlaps(s, iv):
    mid = (iv[0] + iv[1]) / 2
    if s.contains(mid):
        assert s.intersection(IntervalSet.single(*iv))
