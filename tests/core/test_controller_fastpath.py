"""Controller fast path: oracle equivalence, invariants, stats regressions.

The production controller (segment-cached union folds, pruned fused-scan
candidate scoring, trial journal, slice-boundary heaps) must be
indistinguishable in every scheduling decision from the reference oracle
:class:`~repro.core.reference.ReferenceTaps`, which runs Alg. 2/3 and the
sender model literally — these tests check that at controller scale on a
real multipath topology, plus the invariants and counter regressions the
fast-path work fixed (stats underflow on unregistered-task expiry,
infinite-lateness reporting for planless flows).
"""

import json

from repro.core.allocation import path_calculation
from repro.core.controller import TapsScheduler
from repro.core.occupancy import OccupancyLedger
from repro.core.reference import (
    ReferenceLedger,
    ReferenceTaps,
    reference_path_calculation,
)
from repro.core.reject import Decision, PreemptionPolicy, RejectDecision
from repro.net.fattree import FatTree
from repro.net.paths import PathService
from repro.sim.engine import Engine
from repro.sim.state import FlowState, FlowStatus, TaskState
from repro.trace import TraceRecorder, audit_trace
from repro.workload.flow import Flow, make_task
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.traces import dumbbell


def _contended_workload():
    """A small fat-tree workload with enough contention to exercise
    multipath comparison, rejection, and in-flight reallocation."""
    topo = FatTree(k=4)
    cfg = WorkloadConfig(seed=11, num_tasks=12, arrival_rate=400.0,
                         mean_deadline=0.12, mean_flow_size=400_000.0,
                         mean_flows_per_task=6.0)
    return topo, generate_workload(cfg, list(topo.hosts))


class TestModeEquivalence:
    def test_fast_and_reference_schedule_identically(self):
        """The controller and the oracle must produce byte-identical
        decision traces (events record float-exact plan snapshots, so this
        is the strongest form of equivalence), identical end states, and a
        clean audit."""
        topo, tasks = _contended_workload()
        runs = {}
        dumps = {}
        for fast, cls in ((True, TapsScheduler), (False, ReferenceTaps)):
            recorder = TraceRecorder()
            sched = cls()
            result = Engine(topo, tasks, sched,
                            path_service=PathService(topo, max_paths=4),
                            trace=recorder).run()
            assert sched.trace is recorder  # engine handed its recorder over
            report = audit_trace(recorder)
            assert report.ok, report.summary()
            dumps[fast] = recorder.dumps()
            runs[fast] = (
                [(fs.flow.flow_id, fs.remaining, fs.met_deadline)
                 for fs in result.flow_states],
                [(ts.task.task_id, ts.outcome) for ts in result.task_states],
                (sched.stats.tasks_accepted, sched.stats.tasks_rejected,
                 sched.stats.tasks_preempted, sched.stats.flows_planned),
            )
        assert runs[True] == runs[False]
        assert dumps[True] == dumps[False]
        # sanity: the workload actually exercised both decision kinds
        kinds = {json.loads(line)["kind"] for line in dumps[True].splitlines()}
        assert {"task-accept", "task-reject"} <= kinds

    def test_pruned_path_calculation_matches_reference(self):
        """path_calculation picks the same path, slices, and completion as
        the literal per-candidate evaluation of the oracle, flow for
        flow."""
        topo = FatTree(k=4)
        paths = PathService(topo, max_paths=4)
        hosts = list(topo.hosts)[:4]

        def flows():
            out = []
            for i in range(24):
                src = hosts[i % 4]
                dst = hosts[(i + 1 + i % 3) % 4]
                if dst == src:
                    dst = hosts[(i + 2) % 4]
                f = Flow(flow_id=i, task_id=i // 4, src=src, dst=dst,
                         size=(1.0 + 0.25 * (i % 5)) * 1e6, release=0.0,
                         deadline=0.5 + 0.01 * i)
                out.append(FlowState(flow=f))
            return out

        capacity = topo.uniform_capacity()
        fast = path_calculation(flows(), OccupancyLedger(), paths,
                                capacity, 0.0, 1e4)
        ref = reference_path_calculation(flows(), ReferenceLedger(), paths,
                                         capacity, 0.0, 1e4)
        assert fast.keys() == ref.keys()
        for fid in fast:
            assert fast[fid].path == ref[fid].path
            assert fast[fid].slices._b == ref[fid].slices._b
            assert fast[fid].completion == ref[fid].completion


class TestPreemptionInvariants:
    def test_plans_exclusive_after_discard_victim_retry(self):
        """After a PROSPECTIVE preemption retries the trial, the committed
        plans of the surviving flows never overlap on a shared link."""
        topo = dumbbell(2)
        tasks = [
            make_task(0, 0.0, 6.5, [("L0", "R0", 6.0)], 0),   # victim-to-be
            make_task(1, 0.0, 20.0, [("L1", "R1", 3.0)], 1),  # survivor
            make_task(2, 0.1, 6.2, [("L0", "R0", 6.0)], 2),   # urgent newcomer
        ]
        sched = TapsScheduler(preemption=PreemptionPolicy.PROSPECTIVE)
        engine = Engine(topo, tasks, sched)
        sched.attach(topo, engine.path_service)
        for ts, now in zip(engine.task_states, (0.0, 0.0, 0.1)):
            sched.on_task_arrival(ts, now)

        assert sched.stats.tasks_preempted == 1
        planned_tasks = {p.flow_state.flow.task_id for p in sched.plans.values()}
        assert planned_tasks == {1, 2}  # victim evicted, survivor re-planned
        # the retry rebuilt the trial from a rolled-back ledger; committed
        # slices must still be pairwise exclusive per link
        sched.ledger.assert_exclusive(
            [(p.path, p.slices) for p in sched.plans.values()]
        )
        for p in sched.plans.values():
            assert p.meets_deadline


class TestStatsRegressions:
    def test_expiry_of_batched_task_does_not_underflow_drop_counter(self):
        """A deadline expiry for a task still waiting in the batch window
        (never registered) must not decrement tasks_dropped_on_fault below
        zero — the guarded reclassification only undoes a real drop."""
        topo = dumbbell(1)
        sched = TapsScheduler(batch_window=1.0)
        sched.attach(topo, PathService(topo))
        task = make_task(0, 0.0, 0.5, [("L0", "R0", 2.0)], 0)
        ts = TaskState(task=task)
        ts.flow_states = [FlowState(flow=f) for f in task.flows]
        sched.on_task_arrival(ts, 0.0)  # parked in the batch window
        sched.on_deadline_expired(ts.flow_states[0], 0.6)
        assert sched.stats.backstop_kills == 1
        assert sched.stats.tasks_dropped_on_fault == 0
        assert ts.flow_states[0].status is FlowStatus.TERMINATED

    def test_expiry_of_registered_task_reclassifies_drop(self):
        """The registered-task path still nets out: the fault-drop counter
        stays where it was and the kill shows up as a backstop kill."""
        topo = dumbbell(1)
        sched = TapsScheduler()
        sched.attach(topo, PathService(topo))
        task = make_task(0, 0.0, 5.0, [("L0", "R0", 1.0)], 0)
        ts = TaskState(task=task)
        ts.flow_states = [FlowState(flow=f) for f in task.flows]
        sched.on_task_arrival(ts, 0.0)
        assert ts.accepted is True
        sched.on_deadline_expired(ts.flow_states[0], 5.1)
        assert sched.stats.backstop_kills == 1
        assert sched.stats.tasks_dropped_on_fault == 0

    def test_planless_missing_flow_reported_with_infinite_lateness(self):
        """A rejected flow that never got a trial plan (unplannable, so
        skipped) is reported as infinitely late in the task-reject event,
        not dropped from it (the old code KeyError'd / omitted it)."""
        topo = dumbbell(1)
        recorder = TraceRecorder()
        sched = TapsScheduler(trace=recorder)
        sched.attach(topo, PathService(topo))
        sched.rule.evaluate = lambda plans, new, states: RejectDecision(
            Decision.REJECT_NEW, missing_flow_ids=(999,)
        )
        task = make_task(0, 0.0, 5.0, [("L0", "R0", 1.0)], 0)
        ts = TaskState(task=task)
        ts.flow_states = [FlowState(flow=f) for f in task.flows]
        sched.on_task_arrival(ts, 0.0)
        (reject,) = [ev for ev in recorder if ev.kind == "task-reject"]
        assert reject.reason == "would-miss"
        assert reject.lateness == ((999, float("inf")),)
        assert reject.missing == ((999, 0),)
