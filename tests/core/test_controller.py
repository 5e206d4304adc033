"""TapsScheduler (Alg. 1): admission, reallocation, preemption, sender model."""

import pytest

from repro.core.controller import TapsScheduler
from repro.core.reject import PreemptionPolicy
from repro.sim.engine import Engine
from repro.sim.state import FlowStatus, TaskOutcome
from repro.trace import TraceRecorder
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell, fig1_trace, fig2_trace, fig3_trace


def _run(topo, tasks, **kw):
    sched = TapsScheduler(**kw)
    result = Engine(topo, tasks, sched).run()
    return result, sched


class TestAdmission:
    def test_feasible_task_accepted(self):
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 5.0, [("L0", "R0", 2.0)], 0)]
        result, sched = _run(topo, tasks)
        assert result.task_states[0].accepted is True
        assert sched.stats.tasks_accepted == 1
        assert result.tasks_completed == 1

    def test_infeasible_task_rejected_without_transmitting(self):
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 1.0, [("L0", "R0", 5.0)], 0)]
        result, sched = _run(topo, tasks)
        assert result.task_states[0].accepted is False
        assert sched.stats.tasks_rejected == 1
        fs = result.flow_states[0]
        assert fs.status is FlowStatus.REJECTED
        assert fs.bytes_sent == 0.0

    def test_partial_task_rejected_whole(self):
        """If any one flow of the task cannot meet the deadline, the whole
        task is rejected — no bandwidth wasted on its siblings."""
        topo = dumbbell(2)
        tasks = [make_task(0, 0.0, 3.0,
                           [("L0", "R0", 1.0), ("L1", "R1", 9.0)], 0)]
        result, _ = _run(topo, tasks)
        assert result.task_states[0].accepted is False
        assert all(fs.bytes_sent == 0.0 for fs in result.flow_states)

    def test_accepted_flows_always_meet_deadlines(self):
        topo = dumbbell(4)
        tasks = [
            make_task(i, 0.2 * i, 0.2 * i + 3.0,
                      [(f"L{j}", f"R{j}", 0.8) for j in range(4)], 4 * i)
            for i in range(5)
        ]
        result, sched = _run(topo, tasks)
        for ts in result.task_states:
            if ts.accepted:
                assert ts.outcome is TaskOutcome.COMPLETED
        assert sched.stats.backstop_kills == 0

    def test_rejected_newcomer_does_not_disturb_incumbents(self):
        topo = dumbbell(2)
        tasks = [
            make_task(0, 0.0, 4.0, [("L0", "R0", 3.0)], 0),
            make_task(1, 1.0, 3.0, [("L1", "R1", 3.0)], 1),  # can't fit
        ]
        result, _ = _run(topo, tasks)
        by_tid = {ts.task.task_id: ts for ts in result.task_states}
        assert by_tid[0].outcome is TaskOutcome.COMPLETED
        assert by_tid[1].accepted is False


class TestGlobalReallocation:
    def test_inflight_flows_moved_for_urgent_newcomer(self):
        """Paper Fig. 2: EDF reordering of accepted-but-unsent flows lets
        an urgent late task in — Varys fails this, TAPS passes."""
        topo, tasks = fig2_trace()
        result, _ = _run(topo, tasks)
        assert result.tasks_completed == 2

    def test_fig1_task_level_admission(self):
        topo, tasks = fig1_trace()
        result, _ = _run(topo, tasks)
        assert result.tasks_completed == 1
        assert result.flows_met == 2

    def test_fig3_multipath_global_schedule(self):
        topo, tasks = fig3_trace()
        result, _ = _run(topo, tasks)
        assert result.flows_met == 4  # incl. f4 split around its gap

    def test_fig3_f4_slices_match_paper(self):
        """The optimal schedule gives f4 the split (0,1) ∪ (2,3)."""
        topo, tasks = fig3_trace()
        sched = TapsScheduler()
        engine = Engine(topo, tasks, sched)
        # run arrivals only: admit all four tasks at t=0
        sched.attach(topo, engine.path_service)
        for ts in engine.task_states:
            sched.on_task_arrival(ts, 0.0)
        plan = sched.plan_of(3)  # f4
        assert plan is not None
        assert plan.slices.intervals() == [
            pytest.approx((0.0, 1.0)),
            pytest.approx((2.0, 3.0)),
        ]

    def test_reallocation_preserves_progress(self):
        """A half-sent in-flight flow is re-planned for its remainder only."""
        topo = dumbbell(2)
        tasks = [
            make_task(0, 0.0, 10.0, [("L0", "R0", 4.0)], 0),
            make_task(1, 2.0, 12.0, [("L1", "R1", 1.0)], 1),
        ]
        result, _ = _run(topo, tasks)
        fs0 = result.task_states[0].flow_states[0]
        assert fs0.met_deadline
        assert fs0.bytes_sent == pytest.approx(4.0, rel=1e-5)


class TestPreemption:
    def _victim_scenario(self):
        """t0 accepted with slack but zero progress when urgent t1 arrives;
        together they cannot both fit."""
        topo = dumbbell(2)
        tasks = [
            # t0: starts at 0, deadline 10, needs 6 units
            make_task(0, 0.0, 6.5, [("L0", "R0", 6.0)], 0),
            # t1 arrives immediately after, urgent: needs 6 by t=6.2
            make_task(1, 0.1, 6.2, [("L1", "R1", 6.0)], 1),
        ]
        return topo, tasks

    def test_progress_policy_keeps_started_incumbent(self):
        topo, tasks = self._victim_scenario()
        result, sched = _run(topo, tasks, preemption=PreemptionPolicy.PROGRESS)
        by_tid = {ts.task.task_id: ts for ts in result.task_states}
        # t0 transmitted 0.1 units already → incumbent wins
        assert by_tid[0].outcome is TaskOutcome.COMPLETED
        assert by_tid[1].accepted is False
        assert sched.stats.tasks_preempted == 0

    def test_prospective_policy_discards_victim(self):
        topo, tasks = self._victim_scenario()
        result, sched = _run(topo, tasks, preemption=PreemptionPolicy.PROSPECTIVE)
        by_tid = {ts.task.task_id: ts for ts in result.task_states}
        assert by_tid[1].outcome is TaskOutcome.COMPLETED
        # the victim stays accepted (it was admitted) but fails
        assert by_tid[0].accepted is True
        assert by_tid[0].outcome is TaskOutcome.FAILED
        assert sched.stats.tasks_preempted == 1
        # the victim's transmitted bytes are the only waste TAPS produces
        victim_flow = by_tid[0].flow_states[0]
        assert victim_flow.status is FlowStatus.TERMINATED
        assert victim_flow.bytes_sent > 0

    def test_never_policy_rejects_newcomer(self):
        topo, tasks = self._victim_scenario()
        result, sched = _run(topo, tasks, preemption=PreemptionPolicy.NEVER)
        by_tid = {ts.task.task_id: ts for ts in result.task_states}
        assert by_tid[0].outcome is TaskOutcome.COMPLETED
        assert by_tid[1].accepted is False


class TestRefusedTrialStopsEarly:
    """A trial that clause 2 refuses stops at the newcomer's last flow."""

    def _scenario(self):
        """Three tasks on the shared cable, all arriving at t=0: t0 (2
        units by 10) and t1 (2 units by 5) fit; t2's 3-unit flow cannot
        finish by 3 behind its own 1-unit flow."""
        topo = dumbbell(3)
        tasks = [
            make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0),
            make_task(1, 0.0, 5.0, [("L1", "R1", 2.0)], 1),
            make_task(2, 0.0, 3.0, [("L2", "R2", 1.0), ("L2", "R2", 3.0)], 2),
        ]
        rec = TraceRecorder()
        sched = TapsScheduler(trace=rec)
        engine = Engine(topo, tasks, sched)
        sched.attach(topo, engine.path_service)
        return sched, rec, engine.task_states

    @staticmethod
    def _ftmp(rec):
        return [f[0] for f in rec.events_of_kind("trial-begin")[-1].flows]

    def test_accepted_admission_plans_every_flow(self):
        sched, rec, states = self._scenario()
        sched.on_task_arrival(states[0], 0.0)
        before = sched.stats.flows_planned
        sched.on_task_arrival(states[1], 0.0)
        assert states[1].accepted
        assert self._ftmp(rec) == [1, 0]  # in-flight f0 after the newcomer
        assert sched.stats.flows_planned - before == 2
        assert set(sched.plans) == {0, 1}

    def test_clause2_refusal_lists_only_the_planned_prefix(self):
        sched, rec, states = self._scenario()
        sched.on_task_arrival(states[0], 0.0)
        sched.on_task_arrival(states[1], 0.0)
        before = sched.stats.flows_planned
        sched.on_task_arrival(states[2], 0.0)
        ftmp = self._ftmp(rec)
        assert ftmp == [2, 3, 1, 0]  # EDF, then SJF within t2
        last = max(ftmp.index(fid) for fid in (2, 3))
        (reject,) = rec.events_of_kind("task-reject")
        assert (reject.reason, reject.clause) == ("would-miss", 2)
        # the whole Ftmp would also finish t1's f1 at 6, past its deadline
        # 5; the trial stopped before planning it
        assert all(ftmp.index(fid) <= last for fid, _ in reject.missing)
        assert reject.missing == ((3, 2),)
        assert reject.lateness == ((3, 1.0),)
        assert sched.stats.flows_planned - before == last + 1
        assert set(sched.plans) == {0, 1}

    def test_fault_reroute_plans_every_flow(self):
        sched, _, states = self._scenario()
        sched.on_task_arrival(states[0], 0.0)
        sched.on_task_arrival(states[1], 0.0)
        sched.on_link_state_change(frozenset(), 0.0)
        assert set(sched.plans) == {0, 1}


class TestSenderModel:
    def test_rates_follow_slices(self):
        topo = dumbbell(2)
        tasks = [
            make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0),
            make_task(1, 0.0, 10.0, [("L1", "R1", 2.0)], 1),
        ]
        sched = TapsScheduler()
        engine = Engine(topo, tasks, sched)
        sched.attach(topo, engine.path_service)
        for ts in engine.task_states:
            sched.on_task_arrival(ts, 0.0)
        # flows serialize on the bottleneck: one transmits now, other later
        sched.assign_rates(0.0)
        rates_now = sorted(fs.rate for ts in engine.task_states
                           for fs in ts.flow_states)
        assert rates_now == [0.0, 1.0]
        # at t=2 the second slice starts
        sched.assign_rates(2.0)
        second = [fs for ts in engine.task_states for fs in ts.flow_states
                  if fs.rate > 0]
        assert len(second) == 1

    def test_next_change_is_slice_boundary(self):
        topo = dumbbell(2)
        tasks = [
            make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0),
            make_task(1, 0.0, 10.0, [("L1", "R1", 2.0)], 1),
        ]
        sched = TapsScheduler()
        engine = Engine(topo, tasks, sched)
        sched.attach(topo, engine.path_service)
        for ts in engine.task_states:
            sched.on_task_arrival(ts, 0.0)
        assert sched.next_change(0.0) == pytest.approx(2.0)
        assert sched.next_change(2.5) == pytest.approx(4.0)

    def test_heterogeneous_capacity_rejected(self):
        from repro.net.topology import Topology
        from repro.util.errors import TopologyError

        topo = Topology()
        topo.add_host("a")
        topo.add_host("b")
        topo.add_link("a", "b", capacity=1.0)
        topo.add_link("b", "a", capacity=2.0)
        sched = TapsScheduler()
        engine = Engine(topo, [], sched)
        with pytest.raises(TopologyError):
            sched.attach(topo, engine.path_service)


class TestStats:
    def test_counters_track_decisions(self):
        topo = dumbbell(2)
        tasks = [
            make_task(0, 0.0, 5.0, [("L0", "R0", 2.0)], 0),
            make_task(1, 0.0, 0.5, [("L1", "R1", 9.0)], 1),  # infeasible
        ]
        _, sched = _run(topo, tasks)
        assert sched.stats.tasks_accepted == 1
        assert sched.stats.tasks_rejected == 1
        assert sched.stats.reallocations >= 2
        assert sched.stats.flows_planned >= 2
