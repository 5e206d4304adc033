"""OccupancyLedger: the per-link O_x sets of Alg. 3."""

import pytest

from repro.core.occupancy import OccupancyLedger
from repro.util.intervals import GRID, IntervalSet


@pytest.fixture
def ledger():
    return OccupancyLedger()


def test_untouched_link_is_idle(ledger):
    assert not ledger.occupied(42)


def test_commit_marks_all_path_links(ledger):
    s = IntervalSet.single(0, 2)
    ledger.commit((1, 2, 3), s)
    for l in (1, 2, 3):
        assert ledger.occupied(l).intervals() == [(0, 2)]
    assert not ledger.occupied(0)


def test_commit_accumulates(ledger):
    ledger.commit((0,), IntervalSet.single(0, 1))
    ledger.commit((0,), IntervalSet.single(3, 4))
    assert ledger.occupied(0).intervals() == [(0, 1), (3, 4)]


def test_commit_copies_slices(ledger):
    s = IntervalSet.single(0, 1)
    ledger.commit((0,), s)
    s.add(5, 6)  # mutating the caller's set must not leak into the ledger
    assert ledger.occupied(0).intervals() == [(0, 1)]


def test_union_for_path(ledger):
    ledger.commit((0,), IntervalSet.single(0, 1))
    ledger.commit((1,), IntervalSet.single(2, 3))
    tocp = ledger.union_for((0, 1, 5))
    assert tocp.intervals() == [(0, 1), (2, 3)]


def test_union_for_returns_copy(ledger):
    ledger.commit((0,), IntervalSet.single(0, 1))
    tocp = ledger.union_for((0,))
    tocp.add(9, 10)
    assert ledger.occupied(0).intervals() == [(0, 1)]


def test_union_for_empty_path_links(ledger):
    assert not ledger.union_for((7, 8))


def test_touched_links_sorted(ledger):
    ledger.commit((5, 1), IntervalSet.single(0, 1))
    assert ledger.touched_links() == [1, 5]


def test_assert_exclusive_passes_on_disjoint(ledger):
    plans = [
        ((0, 1), IntervalSet.single(0, 1)),
        ((0, 1), IntervalSet.single(1, 2)),
    ]
    ledger.assert_exclusive(plans)


def test_assert_exclusive_catches_overlap(ledger):
    plans = [
        ((0,), IntervalSet.single(0, 2)),
        ((0,), IntervalSet.single(1, 3)),
    ]
    with pytest.raises(AssertionError):
        ledger.assert_exclusive(plans)


def test_assert_exclusive_catches_one_grid_unit_overlap(ledger):
    plans = [
        ((0,), IntervalSet.single(0, 1)),
        ((0,), IntervalSet.single(1 - GRID, 2)),
    ]
    with pytest.raises(AssertionError):
        ledger.assert_exclusive(plans)


def test_assert_exclusive_allows_overlap_on_different_links(ledger):
    plans = [
        ((0,), IntervalSet.single(0, 2)),
        ((1,), IntervalSet.single(0, 2)),
    ]
    ledger.assert_exclusive(plans)
