"""Alg. 2 / Alg. 3: time allocation and best-path calculation."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core.allocation import (
    allocation_horizon,
    path_calculation,
    time_allocation,
)
from repro.core.occupancy import OccupancyLedger
from repro.core.reference import ReferenceLedger, reference_path_calculation
from repro.net.fattree import FatTree
from repro.net.paths import PathService
from repro.obs.hotpath import HotPathCounters
from repro.sim.state import FlowState
from repro.util.errors import AllocationError
from repro.util.intervals import IntervalSet, up
from repro.workload.flow import Flow
from repro.workload.traces import dumbbell, fig3_topology


def _fs(fid, src, dst, size, deadline, release=0.0, tid=None):
    f = Flow(flow_id=fid, task_id=tid if tid is not None else fid,
             src=src, dst=dst, size=size, release=release, deadline=deadline)
    return FlowState(flow=f)


class TestTimeAllocation:
    def test_idle_path_allocates_immediately(self):
        ledger = OccupancyLedger()
        slices, end = time_allocation(ledger, (0, 1), 2.0, release=0.0, horizon=100.0)
        assert slices.intervals() == [(0, 2)]
        assert end == 2.0

    def test_respects_release(self):
        ledger = OccupancyLedger()
        slices, end = time_allocation(ledger, (0,), 1.0, release=5.0, horizon=100.0)
        assert slices.intervals() == [(5, 6)]

    def test_schedules_around_occupancy(self):
        ledger = OccupancyLedger()
        ledger.commit((1,), IntervalSet.single(1, 3))
        slices, end = time_allocation(ledger, (0, 1), 2.0, release=0.0, horizon=100.0)
        # idle on the path: [0,1) ∪ [3,∞) → slices split
        assert slices.intervals() == [(0, 1), (3, 4)]
        assert end == 4.0

    def test_union_across_links(self):
        ledger = OccupancyLedger()
        ledger.commit((0,), IntervalSet.single(0, 1))
        ledger.commit((1,), IntervalSet.single(2, 3))
        slices, end = time_allocation(ledger, (0, 1), 1.5, release=0.0, horizon=100.0)
        assert slices.intervals() == [(1, 2), (3, 3.5)]

    def test_horizon_too_small_raises(self):
        ledger = OccupancyLedger()
        with pytest.raises(AllocationError):
            time_allocation(ledger, (0,), 10.0, release=0.0, horizon=5.0)

    def test_completion_on_path_matches(self):
        """Alg. 3's completion equals the literal complement → fit score."""
        ledger = OccupancyLedger()
        ledger.commit((0,), IntervalSet.single(0.5, 2.5))
        _, end = time_allocation(ledger, (0,), 3.0, release=0.0, horizon=100.0)
        idle = ledger.union_for((0,)).complement(0.0, 100.0)
        assert idle.idle_fit_end(3.0, 0.0) == pytest.approx(end)


class TestPathCalculation:
    def test_single_path_serializes_in_order(self):
        topo = dumbbell(2)
        paths = PathService(topo)
        ledger = OccupancyLedger()
        flows = [
            _fs(0, "L0", "R0", 2.0, 10.0),
            _fs(1, "L1", "R1", 3.0, 10.0),
        ]
        plans = path_calculation(flows, ledger, paths, 1.0, 0.0, 100.0)
        assert plans[0].completion == pytest.approx(2.0)
        assert plans[1].completion == pytest.approx(5.0)  # waits for flow 0

    def test_multipath_picks_idle_route(self):
        from repro.net.fattree import FatTree

        topo = FatTree(k=4)
        paths = PathService(topo)
        ledger = OccupancyLedger()
        # two inter-pod flows from different edge switches: they contend
        # only on the agg→core links, where a detour exists
        flows = [
            _fs(0, "h0_0_0", "h1_0_0", 1.0, 10.0),
            _fs(1, "h0_1_0", "h1_1_0", 1.0, 10.0),
        ]
        plans = path_calculation(flows, ledger, paths, topo.uniform_capacity(),
                                 0.0, 100.0)
        # with the detour both complete immediately instead of serializing,
        # after one flow's transmission time rounded up onto the plan grid
        for p in plans.values():
            assert p.completion == up(1.0 / topo.uniform_capacity())
        # and they never share a link
        assert not set(plans[0].path) & set(plans[1].path)

    def test_single_path_ties_keep_first_candidate(self):
        topo = fig3_topology()
        paths = PathService(topo)
        ledger = OccupancyLedger()
        # two 1->4 flows share the mandatory 1->S1 access link: they must
        # serialize there no matter the detour, completing at 1 and 2
        flows = [
            _fs(0, "1", "4", 1.0, 10.0),
            _fs(1, "1", "4", 1.0, 10.0),
        ]
        plans = path_calculation(flows, ledger, paths, 1.0, 0.0, 100.0)
        ends = sorted(p.completion for p in plans.values())
        assert ends == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_plan_slices_cover_duration(self):
        topo = dumbbell(1)
        paths = PathService(topo)
        ledger = OccupancyLedger()
        flows = [_fs(0, "L0", "R0", 2.5, 10.0)]
        plans = path_calculation(flows, ledger, paths, 1.0, 0.0, 100.0)
        assert plans[0].slices.measure() == pytest.approx(2.5)

    def test_meets_deadline_flag(self):
        topo = dumbbell(1)
        paths = PathService(topo)
        plans = path_calculation(
            [_fs(0, "L0", "R0", 2.0, 1.5)], OccupancyLedger(), paths, 1.0, 0.0, 100.0
        )
        assert not plans[0].meets_deadline

    def test_committed_plans_never_overlap_on_links(self):
        topo = dumbbell(4)
        paths = PathService(topo)
        ledger = OccupancyLedger()
        flows = [_fs(i, f"L{i}", f"R{i}", 1.0 + i, 50.0) for i in range(4)]
        plans = path_calculation(flows, ledger, paths, 1.0, 0.0, 200.0)
        ledger_check = OccupancyLedger()
        ledger_check.assert_exclusive(
            [(p.path, p.slices) for p in plans.values()]
        )

    def test_respects_now_for_inflight(self):
        topo = dumbbell(1)
        paths = PathService(topo)
        flows = [_fs(0, "L0", "R0", 1.0, 10.0, release=0.0)]
        plans = path_calculation(flows, OccupancyLedger(), paths, 1.0, 5.0, 100.0)
        assert plans[0].slices.start() >= 5.0

    def test_remaining_not_size_drives_duration(self):
        topo = dumbbell(1)
        paths = PathService(topo)
        fs = _fs(0, "L0", "R0", 4.0, 10.0)
        fs.remaining = 1.0  # 3 units already sent
        plans = path_calculation([fs], OccupancyLedger(), paths, 1.0, 0.0, 100.0)
        assert plans[0].slices.measure() == pytest.approx(1.0)


FAT_TREE = FatTree(k=4)


class TestGroupBound:
    """Alg. 2 scores candidates by group on a k=4 fat-tree.

    ``h0_0_0 → h1_0_0`` has four candidates in two groups of two: members
    of a group share the access links and the edge↔aggregation hops, and
    differ only in their aggregation↔core interior.  Each flow takes one
    second at link rate, so a contention-free fit completes at 1.
    """

    SRC, DST = "h0_0_0", "h1_0_0"

    def _plan(self, busy):
        """Plan one flow around ``busy`` ((src node, dst node), start, end)
        link blocks, with the planner and with the literal oracle; return
        the planner's plan, its counters and its ledger."""
        topo = FAT_TREE
        paths = PathService(topo)
        capacity = topo.uniform_capacity()
        profile = HotPathCounters()
        ledger = OccupancyLedger(profile=profile)
        oracle = ReferenceLedger()
        for nodes, start, end in busy:
            block = IntervalSet.single(start, end)
            ledger.commit(topo.nodes_to_path(list(nodes)), block)
            oracle.commit(topo.nodes_to_path(list(nodes)), block)
        plans = path_calculation(
            [_fs(0, self.SRC, self.DST, capacity, 10.0)], ledger, paths,
            capacity, 0.0, 100.0, profile=profile,
        )
        ref = reference_path_calculation(
            [_fs(0, self.SRC, self.DST, capacity, 10.0)], oracle, paths,
            capacity, 0.0, 100.0,
        )
        assert plans[0].path == ref[0].path
        assert plans[0].slices == ref[0].slices
        assert plans[0].completion == ref[0].completion
        candidates = paths.candidates(self.SRC, self.DST)
        assert len(candidates) == 4
        assert candidates[0][1] == candidates[1][1] != candidates[2][1]
        return plans[0], profile, ledger, candidates

    def test_bound_at_best_skips_the_group_and_the_next(self):
        """A busy access link delays every candidate equally: the first
        completes at 2, and each group's bound reaches 2, so no other
        candidate's interior is ever folded."""
        plan, profile, _, candidates = self._plan([(("h0_0_0", "e0_0"), 0, 1)])
        assert plan.path == candidates[0] and plan.completion == 2.0
        assert profile.candidates_pruned == 3
        assert profile.union_cache_misses + profile.union_cache_hits == 1

    def test_fresh_bound_for_each_group(self):
        """The first group's hop is busy, so its bound reaches the first
        candidate's completion and skips its second member; the second
        group needs a bound of its own, which lets its first member win."""
        plan, profile, _, candidates = self._plan([(("e0_0", "a0_0"), 0, 1)])
        assert plan.path == candidates[2] and plan.completion == 1.0
        # the second member by its group's bound, the fourth because
        # the third completes at the contention-free 1
        assert profile.candidates_pruned == 2

    def test_bound_skips_a_group_before_folding_its_interiors(self):
        """Both interiors of the first group are busy and the second
        group's first hop is busy for longer: the second group is skipped
        on its bound, and its interiors are never folded."""
        plan, profile, ledger, candidates = self._plan([
            (("a0_0", "c0_0"), 0, 1),
            (("a0_0", "c1_0"), 0, 1),
            (("e0_0", "a0_1"), 0, 5),
        ])
        assert plan.path == candidates[0] and plan.completion == 2.0
        assert profile.candidates_pruned == 2
        assert profile.union_cache_misses == 2
        for p in candidates[2:]:
            assert p[2:-2] not in ledger._unions


@st.composite
def busy_fat_tree(draw):
    """Random link blocks on a k=4 fat-tree and a few flows among a
    handful of hosts, so candidates often tie and groups often lose."""
    n_links = len(FAT_TREE.links)
    busy = draw(st.lists(
        st.tuples(st.integers(0, n_links - 1), st.integers(0, 6),
                  st.integers(1, 4)),
        max_size=24,
    ))
    hosts = list(FAT_TREE.hosts)[:6]
    flows = draw(st.lists(
        st.tuples(st.sampled_from(hosts), st.sampled_from(hosts),
                  st.integers(1, 6), st.integers(0, 3)),
        min_size=1, max_size=10,
    ))
    return busy, [f for f in flows if f[0] != f[1]]


@given(busy_fat_tree())
@settings(max_examples=150, deadline=None)
def test_grouped_scoring_plans_like_the_reference(case):
    """Whatever the contention, the grouped planner's plans equal the
    literal Alg. 2/3's, flow for flow."""
    busy, specs = case
    topo = FAT_TREE
    paths = PathService(topo)
    capacity = topo.uniform_capacity()
    ledger, oracle = OccupancyLedger(), ReferenceLedger()
    for link, start, width in busy:
        block = IntervalSet.single(start * 0.5, (start + width) * 0.5)
        ledger.commit((link,), block)
        oracle.commit((link,), block)

    def flows():
        return [_fs(i, src, dst, size * 0.25 * capacity, 10.0,
                    release=release * 0.5)
                for i, (src, dst, size, release) in enumerate(specs)]

    plans = path_calculation(flows(), ledger, paths, capacity, 0.0, 200.0)
    ref = reference_path_calculation(flows(), oracle, paths, capacity,
                                     0.0, 200.0)
    assert plans.keys() == ref.keys()
    for fid, plan in plans.items():
        assert plan.path == ref[fid].path
        assert plan.slices == ref[fid].slices
        assert plan.completion == ref[fid].completion


class TestHorizon:
    def test_horizon_serial_worst_case(self):
        flows = [_fs(i, "L0", "R0", 2.0, 5.0) for i in range(3)]
        h = allocation_horizon(flows, capacity=1.0, now=0.0)
        assert h >= 5.0 + 6.0  # latest deadline + total backlog

    def test_horizon_empty(self):
        assert allocation_horizon([], 1.0, now=3.0) == 4.0

    def test_horizon_on_plan_grid(self):
        flows = [_fs(0, "L0", "R0", 1.0, 5.0)]
        h = allocation_horizon(flows, capacity=3.0, now=0.0)
        assert h == up(h) and 6.0 + 1 / 3 <= h < 6.0 + 1 / 3 + 1e-9

    def test_horizon_beyond_exact_plan_range_raises(self):
        flows = [_fs(0, "L0", "R0", 1.0, 2.0 ** 17)]
        with pytest.raises(ValueError, match="exact plan-time range"):
            allocation_horizon(flows, 1.0, now=0.0)

    def test_horizon_guarantees_fit(self):
        topo = dumbbell(1)
        paths = PathService(topo)
        flows = [_fs(i, "L0", "R0", 5.0, 1.0) for i in range(10)]
        h = allocation_horizon(flows, 1.0, 0.0)
        # must never raise even though every deadline is hopeless
        plans = path_calculation(flows, OccupancyLedger(), paths, 1.0, 0.0, h)
        assert len(plans) == 10
