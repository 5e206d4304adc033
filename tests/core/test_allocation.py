"""Alg. 2 / Alg. 3: time allocation and best-path calculation."""

import pytest

from repro.core.allocation import (
    allocation_horizon,
    path_calculation,
    time_allocation,
)
from repro.core.occupancy import OccupancyLedger
from repro.net.paths import PathService
from repro.sim.state import FlowState
from repro.util.errors import AllocationError
from repro.util.intervals import IntervalSet
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
        # with the detour both complete immediately instead of serializing
        for p in plans.values():
            assert p.completion == pytest.approx(1.0 / topo.uniform_capacity())
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


class TestHorizon:
    def test_horizon_serial_worst_case(self):
        flows = [_fs(i, "L0", "R0", 2.0, 5.0) for i in range(3)]
        h = allocation_horizon(flows, capacity=1.0, now=0.0)
        assert h >= 5.0 + 6.0  # latest deadline + total backlog

    def test_horizon_empty(self):
        assert allocation_horizon([], 1.0, now=3.0) == 4.0

    def test_horizon_guarantees_fit(self):
        topo = dumbbell(1)
        paths = PathService(topo)
        flows = [_fs(i, "L0", "R0", 5.0, 1.0) for i in range(10)]
        h = allocation_horizon(flows, 1.0, 0.0)
        # must never raise even though every deadline is hopeless
        plans = path_calculation(flows, OccupancyLedger(), paths, 1.0, 0.0, h)
        assert len(plans) == 10
