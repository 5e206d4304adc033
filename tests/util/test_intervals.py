"""Unit tests for IntervalSet — the occupancy primitive under TAPS Alg. 3."""

import pytest

from repro.util.intervals import GRID, IntervalSet, union_all, up


class TestConstruction:
    def test_empty(self):
        s = IntervalSet()
        assert not s
        assert len(s) == 0
        assert s.measure() == 0.0

    def test_single(self):
        s = IntervalSet.single(1.0, 3.0)
        assert len(s) == 1
        assert s.intervals() == [(1.0, 3.0)]
        assert s.measure() == 2.0

    def test_from_iterable(self):
        s = IntervalSet([(0, 1), (2, 3)])
        assert s.intervals() == [(0, 1), (2, 3)]

    def test_from_iterable_merges_overlaps(self):
        s = IntervalSet([(0, 2), (1, 3)])
        assert s.intervals() == [(0, 3)]

    def test_degenerate_ignored(self):
        s = IntervalSet([(1.0, 1.0)])
        assert not s

    def test_copy_is_independent(self):
        a = IntervalSet.single(0, 1)
        b = a.copy()
        b.add(5, 6)
        assert len(a) == 1
        assert len(b) == 2

    def test_start_end(self):
        s = IntervalSet([(1, 2), (5, 9)])
        assert s.start() == 1
        assert s.end() == 9

    def test_start_of_empty_raises(self):
        with pytest.raises(ValueError):
            IntervalSet().start()
        with pytest.raises(ValueError):
            IntervalSet().end()

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(IntervalSet())


class TestAdd:
    def test_append_right(self):
        s = IntervalSet.single(0, 1)
        s.add(2, 3)
        assert s.intervals() == [(0, 1), (2, 3)]

    def test_insert_left(self):
        s = IntervalSet.single(2, 3)
        s.add(0, 1)
        assert s.intervals() == [(0, 1), (2, 3)]

    def test_insert_middle(self):
        s = IntervalSet([(0, 1), (4, 5)])
        s.add(2, 3)
        assert s.intervals() == [(0, 1), (2, 3), (4, 5)]

    def test_merge_touching_right(self):
        s = IntervalSet.single(0, 1)
        s.add(1, 2)
        assert s.intervals() == [(0, 2)]

    def test_merge_overlapping(self):
        s = IntervalSet.single(0, 2)
        s.add(1, 5)
        assert s.intervals() == [(0, 5)]

    def test_absorb_multiple(self):
        s = IntervalSet([(0, 1), (2, 3), (4, 5)])
        s.add(0.5, 4.5)
        assert s.intervals() == [(0, 5)]

    def test_subset_add_is_noop(self):
        s = IntervalSet.single(0, 10)
        s.add(3, 4)
        assert s.intervals() == [(0, 10)]

    def test_one_grid_unit_gap_is_kept(self):
        s = IntervalSet.single(0, 1)
        s.add(1 + GRID, 2)
        assert s.intervals() == [(0, 1), (1 + GRID, 2)]

    def test_invariants_after_many_adds(self):
        s = IntervalSet()
        for i in range(20):
            s.add(i * 0.7, i * 0.7 + 0.5)
        s.check_invariants()


class TestSubtract:
    """Removing intervals from a window ``[lo, hi)``: ``complement``, the
    subtraction Alg. 3 performs (idle = window minus occupancy)."""

    def test_remove_middle_splits(self):
        s = IntervalSet.single(4, 6).complement(0, 10)
        assert s.intervals() == [(0, 4), (6, 10)]

    def test_remove_prefix(self):
        s = IntervalSet.single(0, 3).complement(0, 10)
        assert s.intervals() == [(3, 10)]

    def test_remove_suffix(self):
        s = IntervalSet.single(7, 12).complement(0, 10)
        assert s.intervals() == [(0, 7)]

    def test_remove_all(self):
        assert not IntervalSet.single(-1, 11).complement(0, 10)

    def test_remove_disjoint_noop(self):
        s = IntervalSet.single(2, 3).complement(0, 1)
        assert s.intervals() == [(0, 1)]

    def test_subtract_then_add_roundtrip(self):
        s = IntervalSet.single(4, 6).complement(0, 10)
        s.add(4, 6)
        assert s.intervals() == [(0, 10)]


class TestQueries:
    def test_contains_half_open(self):
        s = IntervalSet.single(1, 2)
        assert s.contains(1.0)
        assert s.contains(1.5)
        assert not s.contains(2.0)
        assert not s.contains(0.999999)

    def test_contains_multi(self):
        s = IntervalSet([(0, 1), (2, 3), (4, 5)])
        assert s.contains(2.5)
        assert not s.contains(3.5)

    def test_overlaps(self):
        """Half-open: intervals that only touch do not overlap."""
        s = IntervalSet([(0, 1), (3, 4)])
        assert s.intersection(IntervalSet.single(0.5, 2))
        assert s.intersection(IntervalSet.single(2, 3.5))
        assert not s.intersection(IntervalSet.single(1, 3))
        assert not s.intersection(IntervalSet.single(5, 6))
        assert s.intersection(IntervalSet.single(1 - GRID, 3))

    def test_overlaps_degenerate_false(self):
        s = IntervalSet.single(0, 10)
        assert not s.intersection(IntervalSet.single(5, 5))

    def test_equality(self):
        assert IntervalSet([(0, 1)]) == IntervalSet([(0, 1)])
        assert IntervalSet([(0, 1)]) != IntervalSet([(0, 2)])
        assert IntervalSet() == IntervalSet()

    def test_next_boundary(self):
        s = IntervalSet([(1, 2), (4, 6)])
        assert s.next_boundary(0) == 1
        assert s.next_boundary(1) == 2
        assert s.next_boundary(2) == 4
        assert s.next_boundary(5) == 6
        assert s.next_boundary(6) is None

    def test_repr_shows_intervals(self):
        assert "[1, 2)" in repr(IntervalSet.single(1, 2))


class TestAlgebra:
    def test_union_disjoint(self):
        a = IntervalSet([(0, 1)])
        b = IntervalSet([(2, 3)])
        assert a.union(b).intervals() == [(0, 1), (2, 3)]

    def test_union_overlapping(self):
        a = IntervalSet([(0, 2)])
        b = IntervalSet([(1, 3)])
        assert a.union(b).intervals() == [(0, 3)]

    def test_union_with_empty(self):
        a = IntervalSet([(0, 2)])
        assert a.union(IntervalSet()) == a
        assert IntervalSet().union(a) == a

    def test_union_all(self):
        sets = [IntervalSet([(i, i + 1)]) for i in range(3)]
        assert union_all(sets).intervals() == [(0, 3)]

    def test_union_all_empty(self):
        assert not union_all([])

    def test_intersection(self):
        a = IntervalSet([(0, 5)])
        b = IntervalSet([(3, 8)])
        assert a.intersection(b).intervals() == [(3, 5)]

    def test_intersection_disjoint(self):
        a = IntervalSet([(0, 1)])
        b = IntervalSet([(2, 3)])
        assert not a.intersection(b)

    def test_intersection_multi(self):
        a = IntervalSet([(0, 2), (4, 6)])
        b = IntervalSet([(1, 5)])
        assert a.intersection(b).intervals() == [(1, 2), (4, 5)]

    def test_complement_of_empty_is_window(self):
        idle = IntervalSet().complement(0, 10)
        assert idle.intervals() == [(0, 10)]

    def test_complement_basic(self):
        occ = IntervalSet([(2, 4), (6, 8)])
        idle = occ.complement(0, 10)
        assert idle.intervals() == [(0, 2), (4, 6), (8, 10)]

    def test_complement_clips_to_window(self):
        occ = IntervalSet([(-5, 2), (8, 15)])
        idle = occ.complement(0, 10)
        assert idle.intervals() == [(2, 8)]

    def test_complement_full_coverage_is_empty(self):
        occ = IntervalSet([(0, 10)])
        assert not occ.complement(2, 8)

    def test_double_complement_roundtrip(self):
        occ = IntervalSet([(2, 4), (6, 8)])
        back = occ.complement(0, 10).complement(0, 10)
        assert back == occ


class TestFirstFit:
    def test_fits_in_first_gap(self):
        idle = IntervalSet([(0, 10)])
        slices = idle.first_fit(3, after=0)
        assert slices.intervals() == [(0, 3)]

    def test_respects_after(self):
        idle = IntervalSet([(0, 10)])
        slices = idle.first_fit(3, after=4)
        assert slices.intervals() == [(4, 7)]

    def test_splits_across_gaps(self):
        idle = IntervalSet([(0, 2), (5, 10)])
        slices = idle.first_fit(4, after=0)
        assert slices.intervals() == [(0, 2), (5, 7)]

    def test_skips_gaps_before_after(self):
        idle = IntervalSet([(0, 1), (3, 10)])
        slices = idle.first_fit(2, after=2)
        assert slices.intervals() == [(3, 5)]

    def test_partial_gap_at_after(self):
        # only 1 unit available in (3,4) — must fail
        idle = IntervalSet([(0, 4)])
        with pytest.raises(ValueError):
            idle.first_fit(2, after=3)

    def test_insufficient_raises(self):
        idle = IntervalSet([(0, 1)])
        with pytest.raises(ValueError):
            idle.first_fit(2, after=0)

    def test_zero_duration_empty(self):
        idle = IntervalSet([(0, 10)])
        assert not idle.first_fit(0, after=0)

    def test_exact_fill(self):
        idle = IntervalSet([(0, 2), (3, 4)])
        slices = idle.first_fit(3, after=0)
        assert slices.intervals() == [(0, 2), (3, 4)]

    def test_idle_fit_end_matches_first_fit(self):
        idle = IntervalSet([(0, 2), (5, 9), (12, 20)])
        for dur in (0.5, 2, 3, 6, 10):
            for after in (0, 1, 4, 6):
                slices = idle.first_fit(dur, after)
                assert slices.end() == idle.idle_fit_end(dur, after)
                assert slices.measure() == dur

    def test_idle_fit_end_insufficient_raises(self):
        idle = IntervalSet([(0, 1)])
        with pytest.raises(ValueError):
            idle.idle_fit_end(5, after=0)


class TestGrid:
    def test_up_keeps_grid_values(self):
        for t in (0.0, GRID, 1.0, 2.5, 37.25 + 3 * GRID, -GRID):
            assert up(t) == t

    def test_up_rounds_to_next_multiple(self):
        assert up(GRID / 3) == GRID
        assert up(1.0 + GRID / 2) == 1.0 + GRID
        assert up(8e-9) == 550 * GRID  # 8e-9 s is 549.76 grid units
