"""OccupancyLedger fast path: segment cache, partial folds, trial journal.

The segment cache, the uncopied folds, the spliced commits and the journal
are pure performance machinery — every observable value must be identical
to an uncached, copy-based ledger.  The property test drives a ledger
through arbitrary commit/query/trial sequences against a hand-rolled model
(dict of link → IntervalSet with deep-copy trial snapshots) and checks
``union_for`` and the recombined group and segment folds Alg. 2 scores a
candidate from, float-for-float after every query; the unit tests pin the
journal's edge semantics and the cache's admission/eviction behaviour.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core.occupancy import OccupancyLedger
from repro.obs.hotpath import HotPathCounters
from repro.util.intervals import IntervalSet, merge_boundaries, union_all

LINKS = list(range(6))

paths = st.lists(st.sampled_from(LINKS), min_size=1, max_size=6,
                 unique=True).map(tuple)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), paths,
                  st.floats(min_value=0.0, max_value=40.0),
                  st.floats(min_value=0.5, max_value=8.0)),
        st.tuples(st.just("query"), paths),
        st.just(("begin",)),
        st.just(("rollback",)),
        st.just(("commit_trial",)),
    ),
    max_size=30,
)


def _model_union(model, path):
    return union_all([model[link] for link in path if link in model])


def _parts(ledger, path):
    """The two partial folds Alg. 2 scores ``path`` from: its group's
    links (the endpoints, plus the first and last hop on paths of five or
    more links), folded onto the endpoint fold, and its interior
    segment's fold."""
    ends = ledger.fold((path[0], path[-1]))
    if len(path) >= 5:
        return ledger.fold((path[1], path[-2]), ends), ledger.segment_fold(path[2:-2])
    return ends, ledger.segment_fold(path[1:-1])


def _assert_matches(ledger, model, path):
    expected = _model_union(model, path)._b
    assert ledger.union_for(path)._b == expected
    assert merge_boundaries(*_parts(ledger, path)) == expected


@given(ops, st.lists(paths, min_size=1, max_size=4))
@settings(max_examples=150)
def test_cached_ledger_matches_model(sequence, probes):
    """Arbitrary commit/query/trial sequences: the ledger's unions — fresh
    and from cached segment folds — equal a snapshot-copy reference model
    at every step."""
    ledger = OccupancyLedger()
    model: dict[int, IntervalSet] = {}
    snapshot: dict[int, IntervalSet] | None = None

    for op in sequence:
        kind = op[0]
        if kind == "commit":
            _, path, start, width = op
            slices = IntervalSet.single(start, start + width)
            ledger.commit(path, slices)
            # the model journals by eager deep copy at begin_trial; the
            # ledger by lazy reference snapshots — results must agree
            for link in path:
                if link in model:
                    model[link] = model[link].union(slices)
                else:
                    model[link] = slices.copy()
        elif kind == "query":
            _assert_matches(ledger, model, op[1])
        elif kind == "begin":
            if not ledger.in_trial:
                ledger.begin_trial()
                snapshot = {link: s.copy() for link, s in model.items()}
        elif kind == "rollback":
            if ledger.in_trial:
                ledger.rollback_trial()
                assert snapshot is not None
                model, snapshot = snapshot, None
        elif kind == "commit_trial":
            if ledger.in_trial:
                ledger.commit_trial()
                snapshot = None

    for path in probes:
        # repeat the probe so the segment cache serves one from store
        _assert_matches(ledger, model, path)
        _assert_matches(ledger, model, path)


@given(ops, paths)
@settings(max_examples=100)
def test_group_and_segment_folds_recombine_to_union_for(sequence, path):
    """merge(group fold, segment fold) equals union_for, for any ledger
    state and any path length."""
    ledger = OccupancyLedger()
    for op in sequence:
        if op[0] == "commit":
            _, p, start, width = op
            ledger.commit(p, IntervalSet.single(start, start + width))
    shared, inter = _parts(ledger, path)
    assert merge_boundaries(shared, inter) == ledger.union_for(path)._b


@given(ops)
@settings(max_examples=100)
def test_folds_share_lists_and_commits_never_mutate_them(sequence):
    """Folds hand out the ledger's own lists, and a commit rebinds a
    link's list instead of mutating it: a list read before any number of
    commits still holds the value it had when it was read."""
    ledger = OccupancyLedger()
    seen: list[tuple[list[float], list[float]]] = []
    for op in sequence:
        if op[0] == "commit":
            _, p, start, width = op
            ledger.commit(p, IntervalSet.single(start, start + width))
            for link in LINKS:
                held = ledger.fold((link,))
                seen.append((held, list(held)))
    for held, value in seen:
        assert held == value


# -- trial journal ---------------------------------------------------------


def test_double_begin_trial_raises():
    ledger = OccupancyLedger()
    ledger.begin_trial()
    with pytest.raises(RuntimeError):
        ledger.begin_trial()


def test_rollback_without_trial_raises():
    with pytest.raises(RuntimeError):
        OccupancyLedger().rollback_trial()


def test_commit_trial_without_trial_raises():
    with pytest.raises(RuntimeError):
        OccupancyLedger().commit_trial()


def test_rollback_restores_new_and_existing_links():
    ledger = OccupancyLedger()
    ledger.commit((0, 1), IntervalSet.single(0, 2))
    ledger.begin_trial()
    ledger.commit((1, 2), IntervalSet.single(5, 7))  # 1 existed, 2 is new
    ledger.rollback_trial()
    assert ledger.occupied(0).intervals() == [(0, 2)]
    assert ledger.occupied(1).intervals() == [(0, 2)]
    assert not ledger.occupied(2)
    assert not ledger.in_trial


def test_commit_trial_keeps_changes():
    ledger = OccupancyLedger()
    ledger.begin_trial()
    ledger.commit((0,), IntervalSet.single(1, 2))
    ledger.commit_trial()
    assert ledger.occupied(0).intervals() == [(1, 2)]


def test_rollback_evicts_stale_cached_unions():
    ledger = OccupancyLedger()
    seg = (1, 2)  # the interior segment of path (0, 1, 2, 3)
    ledger.commit((1, 2), IntervalSet.single(0, 2))
    ledger.segment_fold(seg)
    assert ledger.cache_info()["entries"] == 1
    ledger.begin_trial()
    ledger.commit((2,), IntervalSet.single(5, 6))
    assert ledger.segment_fold(seg) == [0.0, 2.0, 5.0, 6.0]
    ledger.rollback_trial()
    # the fold cached during the trial must not survive the rollback
    assert ledger.segment_fold(seg) == [0.0, 2.0]


def test_rollback_counts_in_profile():
    profile = HotPathCounters()
    ledger = OccupancyLedger(profile=profile)
    ledger.begin_trial()
    ledger.commit((0,), IntervalSet.single(0, 1))
    ledger.rollback_trial()
    assert profile.trials_rolled_back == 1


# -- cache admission and eviction -----------------------------------------


def test_union_for_never_stores_full_paths():
    """Alg. 2 asks for a full-path union only right before committing on
    that path, so storing it would never pay: every call is a counted
    miss and the store stays empty."""
    profile = HotPathCounters()
    ledger = OccupancyLedger(profile=profile)
    ledger.commit((0,), IntervalSet.single(0, 1))
    for _ in range(3):
        assert ledger.union_for((0, 1)).intervals() == [(0, 1)]
    assert ledger.cache_info()["entries"] == 0
    assert (profile.union_cache_misses, profile.union_cache_hits) == (3, 0)


def test_cache_hit_counted_and_value_correct():
    profile = HotPathCounters()
    ledger = OccupancyLedger(profile=profile)
    ledger.commit((1,), IntervalSet.single(0, 1))
    seg = (1, 2)  # the interior segment of path (0, 1, 2, 3)
    ledger.segment_fold(seg)
    hits_before = profile.union_cache_hits
    inter = ledger.segment_fold(seg)
    assert profile.union_cache_hits == hits_before + 1
    assert inter == [0.0, 1.0]


def test_commit_evicts_only_touched_paths():
    ledger = OccupancyLedger()
    ledger.commit((1,), IntervalSet.single(0, 1))
    ledger.commit((5,), IntervalSet.single(0, 1))
    ledger.segment_fold((1, 2))
    ledger.segment_fold((5, 6))
    assert ledger.cache_info()["entries"] == 2
    ledger.commit((1,), IntervalSet.single(3, 4))  # dirties only (1, 2)
    assert ledger.cache_info()["entries"] == 1
    assert ledger.segment_fold((1, 2)) == [0.0, 1.0, 3.0, 4.0]
    assert ledger.segment_fold((5, 6)) == [0.0, 1.0]


def test_interior_segment_cached_on_first_query():
    """The (agg↔core) interior segment of a 6-link path is cached on its
    first query; a one-link segment is the link's own list, neither cached
    nor counted."""
    ledger = OccupancyLedger()
    path = (0, 1, 2, 3, 4, 5)
    ledger.commit((2,), IntervalSet.single(0, 1))
    profile = HotPathCounters()
    ledger._profile = profile
    inter = ledger.segment_fold(path[2:-2])
    assert inter == [0.0, 1.0]
    assert (2, 3) in ledger._unions
    again = ledger.segment_fold(path[2:-2])
    assert again == [0.0, 1.0]
    assert (profile.union_cache_misses, profile.union_cache_hits) == (1, 1)
    assert ledger.segment_fold((2,)) is ledger.fold((2,))
    assert ledger.segment_fold((4,)) == ledger.segment_fold(()) == []
    assert (profile.union_cache_misses, profile.union_cache_hits) == (1, 1)
    assert ledger.cache_info()["entries"] == 1
