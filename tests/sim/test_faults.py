"""Link-failure injection: engine enforcement and scheduler reactions."""

import pytest

from repro.core.controller import TapsScheduler
from repro.sched.fair import FairSharing
from repro.sim.engine import Engine
from repro.sim.faults import FaultSchedule, LinkFault
from repro.sim.state import FlowStatus
from repro.util.errors import ConfigurationError
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell


class TestFaultSchedule:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkFault(0, start=2.0, end=1.0)
        with pytest.raises(ConfigurationError):
            LinkFault(0, start=-1.0, end=1.0)

    def test_non_finite_times_rejected(self):
        nan, inf = float("nan"), float("inf")
        for start, end in ((nan, 1.0), (0.0, nan), (inf, inf)):
            with pytest.raises(ConfigurationError):
                LinkFault(0, start, end)
        assert LinkFault(0, 0.0, inf).end == inf  # a permanent outage

    def test_down_links_by_time(self):
        fs = FaultSchedule([LinkFault(3, 1.0, 2.0), LinkFault(5, 1.5, 4.0)])
        assert fs.down_links(0.5) == set()
        assert fs.down_links(1.2) == {3}
        assert fs.down_links(1.7) == {3, 5}
        assert fs.down_links(3.0) == {5}
        assert fs.down_links(4.5) == set()

    def test_boundaries(self):
        fs = FaultSchedule([LinkFault(3, 1.0, 2.0)])
        assert fs.next_boundary(0.0) == 1.0
        assert fs.next_boundary(1.0) == 2.0
        assert fs.next_boundary(2.0) is None

    def test_permanent_fault(self):
        fs = FaultSchedule([LinkFault(0, 1.0, float("inf"))])
        assert fs.down_links(1e12) == {0}
        assert fs.next_boundary(0.5) == 1.0
        assert fs.next_boundary(1.5) is None

    def test_outage_of(self):
        f = LinkFault(0, 1.0, 2.0)
        fs = FaultSchedule([f])
        assert fs.outage_of(0, 1.5) == f
        assert fs.outage_of(0, 2.5) is None
        assert fs.outage_of(9, 1.5) is None

    def test_next_boundary_within_old_tolerance(self):
        """A boundary landing within 1e-12 after t must still be returned:
        the old `b > t + 1e-12` comparison skipped it, so the engine never
        woke up for the transition and applied the outage late (or never)."""
        t = 1.0
        b = t + 1e-13
        fs = FaultSchedule([LinkFault(0, b, 2.0)])
        assert fs.next_boundary(t) == b
        # strictness is preserved: the boundary itself is not "after" itself
        assert fs.next_boundary(b) == 2.0
        assert fs.next_boundary(2.0) is None

    def test_next_boundary_distinguishes_boundaries_1e13_apart(self):
        """Two distinct boundaries 1e-13 apart are visited one at a time,
        in order — neither is merged into or shadowed by the other."""
        b0, b1 = 1.0, 1.0 + 1e-13
        assert b0 != b1  # representable as distinct floats
        fs = FaultSchedule([LinkFault(0, b0, 5.0), LinkFault(1, b1, 6.0)])
        assert fs.next_boundary(0.0) == b0
        assert fs.next_boundary(b0) == b1
        assert fs.next_boundary(b1) == 5.0
        assert fs.next_boundary(5.0) == 6.0
        assert fs.next_boundary(6.0) is None

    def test_accepts_any_sequence(self):
        """The annotated-as-list-defaulted-to-tuple signature now honestly
        takes any sequence (and the empty default stays safe to share)."""
        fault = LinkFault(2, 1.0, 2.0)
        for source in ([fault], (fault,), FaultSchedule([fault]).faults):
            fs = FaultSchedule(source)
            assert fs.down_links(1.5) == {2}
        assert not FaultSchedule()
        assert FaultSchedule().next_boundary(0.0) is None

    def test_outage_of_overlapping_windows_returns_longest_cover(self):
        """Two overlapping outages of the same link: during the overlap the
        link stays down until the *later* end, so outage_of must return the
        window extending furthest, not whichever sorted first."""
        early = LinkFault(0, 1.0, 3.0)
        late = LinkFault(0, 2.0, 6.0)
        fs = FaultSchedule([early, late])
        assert fs.outage_of(0, 1.5) == early  # only cover
        assert fs.outage_of(0, 2.5) == late   # overlap: maximal end wins
        assert fs.outage_of(0, 4.0) == late
        assert fs.outage_of(0, 6.0) is None
        # symmetric construction order must not change the answer
        fs2 = FaultSchedule([late, early])
        assert fs2.outage_of(0, 2.5) == late
        # a permanent fault dominates any finite overlap
        perm = LinkFault(0, 2.5, float("inf"))
        fs3 = FaultSchedule([early, late, perm])
        assert fs3.outage_of(0, 2.7) == perm


class TestEngineEnforcement:
    def test_oblivious_scheduler_stalls_through_outage(self):
        """Fair sharing ignores faults; its flow pauses over the outage
        and resumes, finishing late by exactly the outage length."""
        topo = dumbbell(1)
        mid = topo.link("SL", "SR").index
        tasks = [make_task(0, 0.0, 20.0, [("L0", "R0", 4.0)], 0)]
        result = Engine(
            topo, tasks, FairSharing(),
            faults=[LinkFault(mid, 1.0, 3.0)],
        ).run()
        fs = result.flow_states[0]
        assert fs.status is FlowStatus.COMPLETED
        assert fs.completed_at == pytest.approx(6.0)  # 4 work + 2 outage

    def test_outage_can_cause_miss(self):
        topo = dumbbell(1)
        mid = topo.link("SL", "SR").index
        tasks = [make_task(0, 0.0, 5.0, [("L0", "R0", 4.0)], 0)]
        result = Engine(
            topo, tasks, FairSharing(),
            faults=[LinkFault(mid, 1.0, 3.0)],
        ).run()
        fs = result.flow_states[0]
        assert not fs.met_deadline

    def test_flow_not_crossing_fault_unaffected(self):
        topo = dumbbell(2)
        access = topo.link("L1", "SL").index
        tasks = [make_task(0, 0.0, 20.0, [("L0", "R0", 2.0)], 0)]
        result = Engine(
            topo, tasks, FairSharing(),
            faults=[LinkFault(access, 0.0, 10.0)],
        ).run()
        assert result.flow_states[0].completed_at == pytest.approx(2.0)

    def test_fault_on_missing_link_rejected(self):
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 20.0, [("L0", "R0", 2.0)], 0)]
        n = len(topo.links)
        for link in (n, -1):
            with pytest.raises(ConfigurationError, match=f"has {n} links"):
                Engine(topo, tasks, FairSharing(),
                       faults=[LinkFault(link, 0.0, 1.0)])

    def test_no_faults_is_noop(self):
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 20.0, [("L0", "R0", 2.0)], 0)]
        a = Engine(topo, tasks, FairSharing()).run()
        b = Engine(topo, tasks, FairSharing(), faults=[]).run()
        assert a.flow_states[0].completed_at == b.flow_states[0].completed_at


class TestTapsRerouting:
    def test_reroutes_around_outage_on_fat_tree(self):
        """With an alternate path available the controller moves the flow
        and the deadline is still met."""
        from repro.net.fattree import FatTree

        topo = FatTree(4)
        cap = topo.uniform_capacity()
        tasks = [make_task(0, 0.0, 1.0,
                           [("h0_0_0", "h1_0_0", 10 * cap * 0.01)], 0)]
        sched = TapsScheduler()
        engine = Engine(topo, tasks, sched)
        # find the first planned path, fail one of its core links mid-flight
        sched.attach(topo, engine.path_service)
        # plan once to learn the initial route
        probe_engine = Engine(topo, tasks, TapsScheduler())
        probe_sched = probe_engine.scheduler
        probe_sched.attach(topo, probe_engine.path_service)
        probe_sched.on_task_arrival(probe_engine.task_states[0], 0.0)
        initial_path = probe_sched.plan_of(0).path
        core_link = initial_path[2]  # agg -> core link

        result = Engine(
            topo, tasks, TapsScheduler(),
            faults=[LinkFault(core_link, 0.02, 0.5)],
        ).run()
        fs = result.flow_states[0]
        assert fs.met_deadline
        assert core_link not in fs.path  # moved off the failed link
        assert fs.completed_at == pytest.approx(0.1, rel=0.35)

    def test_drops_doomed_task_without_alternative(self):
        """On the single-path dumbbell a long outage makes the deadline
        impossible; TAPS stops the task immediately (no waste after the
        fault) instead of dribbling to a miss."""
        topo = dumbbell(1)
        mid = topo.link("SL", "SR").index
        tasks = [make_task(0, 0.0, 5.0, [("L0", "R0", 4.0)], 0)]
        sched = TapsScheduler()
        result = Engine(
            topo, tasks, sched, faults=[LinkFault(mid, 1.0, 4.0)],
        ).run()
        fs = result.flow_states[0]
        assert fs.status is FlowStatus.TERMINATED
        assert fs.bytes_sent == pytest.approx(1.0)  # nothing after t=1
        assert sched.stats.tasks_dropped_on_fault == 1

    def test_survivable_outage_replans_and_completes(self):
        """A short outage leaves enough slack: the controller re-times the
        flow after recovery and the deadline holds."""
        topo = dumbbell(1)
        mid = topo.link("SL", "SR").index
        tasks = [make_task(0, 0.0, 10.0, [("L0", "R0", 4.0)], 0)]
        sched = TapsScheduler()
        result = Engine(
            topo, tasks, sched, faults=[LinkFault(mid, 1.0, 3.0)],
        ).run()
        fs = result.flow_states[0]
        assert fs.met_deadline
        assert fs.completed_at == pytest.approx(6.0)
        assert sched.stats.fault_reroutes >= 1

    def test_admission_during_outage_rejects_unreachable(self):
        """A task arriving while its only path is down is rejected, not
        queued into a miss."""
        topo = dumbbell(2)
        mid = topo.link("SL", "SR").index
        tasks = [make_task(0, 1.5, 3.5, [("L0", "R0", 1.0)], 0)]
        sched = TapsScheduler()
        result = Engine(
            topo, tasks, sched,
            faults=[LinkFault(mid, 1.0, 10.0)],
        ).run()
        assert result.task_states[0].accepted is False
        assert result.flow_states[0].bytes_sent == 0.0

    def test_new_admissions_avoid_down_links(self):
        from repro.net.fattree import FatTree

        topo = FatTree(4)
        cap = topo.uniform_capacity()
        # fail one agg->core link for the whole run; admissions at t>0
        # must never route across it
        victim = topo.link("a0_0", "c0_0").index
        tasks = [
            make_task(i, 0.01 * i, 1.0 + 0.01 * i,
                      [("h0_0_0", "h1_0_0", cap * 0.01)], i)
            for i in range(6)
        ]
        result = Engine(
            topo, tasks, TapsScheduler(),
            faults=[LinkFault(victim, 0.0, float("inf"))],
        ).run()
        for fs in result.flow_states:
            if fs.path is not None and fs.bytes_sent > 0:
                assert victim not in fs.path
        assert result.tasks_completed == 6


class TestAllSchedulersUnderFaults:
    @pytest.mark.parametrize(
        "name", ["Fair Sharing", "D3", "PDQ", "Baraat", "Varys", "D2TCP", "TAPS"]
    )
    def test_terminates_and_conserves_under_outage(self, name):
        """Every policy survives a mid-run outage: the run terminates,
        accounting is conserved, and nothing transmits across the dead
        link while it is down."""
        from repro.sched.registry import make_scheduler

        topo = dumbbell(3)
        mid = topo.link("SL", "SR").index
        tasks = [
            make_task(i, 0.2 * i, 6.0 + 0.2 * i,
                      [(f"L{i}", f"R{i}", 2.0)], i)
            for i in range(3)
        ]

        class Audit:
            def __init__(self):
                self.violations = 0

            def on_advance(self, t0, t1, active):
                if 1.0 <= t0 and t1 <= 2.5:
                    for fs in active:
                        if fs.rate > 0 and mid in fs.path:
                            self.violations += 1

        audit = Audit()
        result = Engine(
            topo, tasks, make_scheduler(name), hooks=(audit,),
            faults=[LinkFault(mid, 1.0, 2.5)],
        ).run()
        assert audit.violations == 0, name
        for fs in result.flow_states:
            assert fs.status in (
                FlowStatus.COMPLETED, FlowStatus.TERMINATED, FlowStatus.REJECTED
            )
            assert abs(fs.bytes_sent + fs.remaining - fs.flow.size) \
                <= 1e-4 * fs.flow.size + 1e-9
