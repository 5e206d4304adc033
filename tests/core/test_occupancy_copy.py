"""ReferenceLedger.copy: the deep copy behind the oracle's trials."""

from repro.core.reference import ReferenceLedger
from repro.util.intervals import IntervalSet


def test_copy_is_deep():
    ledger = ReferenceLedger()
    ledger.commit((0, 1), IntervalSet.single(0, 2))
    clone = ledger.copy()
    clone.commit((0,), IntervalSet.single(5, 6))
    assert ledger.occ[0].intervals() == [(0, 2)]
    assert clone.occ[0].intervals() == [(0, 2), (5, 6)]


def test_copy_of_empty():
    clone = ReferenceLedger().copy()
    assert clone.occ == {}


def test_copy_then_mutate_original():
    ledger = ReferenceLedger()
    ledger.commit((3,), IntervalSet.single(0, 1))
    clone = ledger.copy()
    ledger.commit((3,), IntervalSet.single(2, 3))
    assert clone.occ[3].intervals() == [(0, 1)]


def test_rollback_restores_the_copy():
    ledger = ReferenceLedger()
    ledger.commit((0,), IntervalSet.single(0, 1))
    ledger.begin_trial()
    ledger.commit((0, 1), IntervalSet.single(2, 3))
    ledger.rollback_trial()
    assert ledger.occ == {0: IntervalSet.single(0, 1)}
