"""Why a task was rejected — the task-reject trace events — and the
engine horizon."""

import pytest

from repro.core.controller import TapsScheduler
from repro.sim.engine import Engine
from repro.sim.faults import LinkFault
from repro.sim.state import FlowStatus
from repro.trace import TraceRecorder
from repro.util.errors import SimulationError
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell


def _rejects(topo, tasks, sched, **engine_kw):
    """Run traced; the task-reject events, in order."""
    recorder = TraceRecorder()
    Engine(topo, tasks, sched, trace=recorder, **engine_kw).run()
    return [ev for ev in recorder if ev.kind == "task-reject"]


class TestDiagnostics:
    def test_off_by_default(self):
        """Untraced runs record nothing; the counters still count."""
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 1.0, [("L0", "R0", 5.0)], 0)]
        sched = TapsScheduler()
        Engine(topo, tasks, sched).run()
        assert sched.stats.tasks_rejected == 1
        assert sched.trace is None

    def test_would_miss_records_lateness(self):
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 2.0, [("L0", "R0", 5.0)], 0)]
        (d,) = _rejects(topo, tasks, TapsScheduler())
        assert d.task_id == 0
        assert d.reason == "would-miss"
        assert d.clause == 2
        ((fid, late),) = d.lateness
        assert fid == 0
        assert late == pytest.approx(3.0)  # completes at 5, deadline 2

    def test_deadline_expired_reason(self):
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 0.3, [("L0", "R0", 0.2)], 0)]
        (d,) = _rejects(topo, tasks, TapsScheduler(control_latency=0.5))
        assert d.reason == "deadline-expired"
        assert d.time == 0.0  # the decision time, not now + latency

    def test_unreachable_reason_during_outage(self):
        topo = dumbbell(1)
        mid = topo.link("SL", "SR").index
        tasks = [make_task(0, 1.5, 3.0, [("L0", "R0", 1.0)], 0)]
        (d,) = _rejects(topo, tasks, TapsScheduler(),
                        faults=[LinkFault(mid, 1.0, 10.0)])
        assert d.reason == "unreachable"
        assert d.missing == ((0, 0),)
        assert d.time == pytest.approx(1.5)

    def test_accepted_tasks_leave_no_diagnostics(self):
        topo = dumbbell(2)
        tasks = [make_task(i, 0.0, 10.0, [(f"L{i}", f"R{i}", 1.0)], i)
                 for i in range(2)]
        assert _rejects(topo, tasks, TapsScheduler()) == []

    def test_incremental_mode_diagnostics(self):
        topo = dumbbell(1)
        tasks = [
            make_task(0, 0.0, 10.0, [("L0", "R0", 5.0)], 0),
            make_task(1, 0.0, 3.0, [("L0", "R0", 1.0)], 1),
        ]
        (d,) = _rejects(topo, tasks, TapsScheduler(reallocate_inflight=False))
        assert d.task_id == 1
        assert d.reason == "would-miss"
        assert d.clause == 2
        assert d.lateness and d.lateness[0][1] > 0


class TestHorizon:
    def test_horizon_terminates_running_flows(self):
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 100.0, [("L0", "R0", 10.0)], 0)]
        from repro.sched.fair import FairSharing

        result = Engine(topo, tasks, FairSharing(), horizon=4.0).run()
        fs = result.flow_states[0]
        assert fs.status is FlowStatus.TERMINATED
        assert fs.bytes_sent == pytest.approx(4.0)
        assert result.finished_at == pytest.approx(4.0)

    def test_completions_before_horizon_unaffected(self):
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 100.0, [("L0", "R0", 2.0)], 0)]
        from repro.sched.fair import FairSharing

        result = Engine(topo, tasks, FairSharing(), horizon=50.0).run()
        assert result.flow_states[0].completed_at == pytest.approx(2.0)
        assert result.tasks_completed == 1

    def test_arrivals_past_horizon_never_admitted(self):
        topo = dumbbell(2)
        tasks = [
            make_task(0, 0.0, 100.0, [("L0", "R0", 1.0)], 0),
            make_task(1, 9.0, 109.0, [("L1", "R1", 1.0)], 1),
        ]
        from repro.sched.fair import FairSharing

        result = Engine(topo, tasks, FairSharing(), horizon=5.0).run()
        by_tid = {ts.task.task_id: ts for ts in result.task_states}
        assert by_tid[0].outcome.value == "completed"
        assert by_tid[1].flow_states[0].bytes_sent == 0.0

    def test_invalid_horizon(self):
        topo = dumbbell(1)
        with pytest.raises(SimulationError):
            Engine(topo, [], None, horizon=0.0)
