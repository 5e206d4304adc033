"""FlowState / TaskState lifecycle semantics."""

import sys
import threading

import pytest

from repro.sim import state
from repro.sim.state import FlowState, FlowStatus, TaskOutcome, TaskState
from repro.workload.flow import make_task


def _task(sizes=(10.0, 20.0), deadline=5.0):
    return make_task(0, 0.0, deadline,
                     [("a", "b", s) for s in sizes], first_flow_id=0)


def _states(task):
    ts = TaskState(task=task)
    ts.flow_states = [FlowState(flow=f) for f in task.flows]
    return ts


class TestFlowState:
    def test_initial(self):
        fs = _states(_task()).flow_states[0]
        assert fs.remaining == fs.flow.size
        assert fs.active
        assert fs.rate == 0.0
        assert not fs.met_deadline

    def test_advance_integrates(self):
        fs = _states(_task()).flow_states[0]
        fs.rate = 2.0
        fs.advance(3.0)
        assert fs.remaining == pytest.approx(4.0)
        assert fs.bytes_sent == pytest.approx(6.0)

    def test_advance_clamps_at_zero(self):
        fs = _states(_task()).flow_states[0]
        fs.rate = 100.0
        fs.advance(10.0)
        assert fs.remaining == 0.0
        assert fs.bytes_sent == pytest.approx(fs.flow.size)

    def test_advance_negative_dt_rejected(self):
        fs = _states(_task()).flow_states[0]
        with pytest.raises(ValueError):
            fs.advance(-1.0)

    def test_finish_in_time(self):
        fs = _states(_task()).flow_states[0]
        fs.finish(4.0)
        assert fs.status is FlowStatus.COMPLETED
        assert fs.met_deadline
        assert not fs.active

    def test_finish_late_not_met(self):
        fs = _states(_task()).flow_states[0]
        fs.finish(6.0)  # deadline is 5
        assert fs.status is FlowStatus.COMPLETED
        assert not fs.met_deadline

    def test_finish_exactly_at_deadline_met(self):
        fs = _states(_task()).flow_states[0]
        fs.finish(5.0)
        assert fs.met_deadline

    def test_kill_statuses(self):
        ts = _states(_task())
        a, b = ts.flow_states
        a.kill(FlowStatus.REJECTED)
        b.kill(FlowStatus.TERMINATED)
        assert not a.active and not b.active
        assert a.rate == b.rate == 0.0

    def test_kill_invalid_status_rejected(self):
        fs = _states(_task()).flow_states[0]
        with pytest.raises(ValueError):
            fs.kill(FlowStatus.COMPLETED)

    def test_every_kill_moves_last_kill_across_threads(self):
        """The engine trusts ``last_kill`` to move at every kill.  Seen
        from the killing thread it must, even with kills racing in more
        threads than cores."""
        per_thread, threads = 5_000, 4
        pools = [_states(_task(sizes=(1.0,) * per_thread)).flow_states
                 for _ in range(threads)]
        missed = []

        def kill_all(flows):
            for fs in flows:
                seen = state.last_kill
                fs.kill(FlowStatus.TERMINATED)
                if state.last_kill == seen:
                    missed.append(fs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=kill_all, args=(flows,))
                       for flows in pools]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert all(not fs.active for flows in pools for fs in flows)
        assert missed == []


class TestTaskState:
    def test_completion_ratio(self):
        ts = _states(_task(sizes=(10.0, 30.0)))
        ts.flow_states[0].bytes_sent = 10.0
        ts.flow_states[1].bytes_sent = 10.0
        assert ts.completion_ratio == pytest.approx(0.5)

    def test_settle_completed(self):
        ts = _states(_task())
        for fs in ts.flow_states:
            fs.finish(3.0)
        assert ts.settle() is TaskOutcome.COMPLETED

    def test_settle_failed_if_any_flow_late(self):
        ts = _states(_task())
        ts.flow_states[0].finish(3.0)
        ts.flow_states[1].finish(9.0)  # late
        assert ts.settle() is TaskOutcome.FAILED

    def test_settle_failed_if_any_flow_killed(self):
        ts = _states(_task())
        ts.flow_states[0].finish(3.0)
        ts.flow_states[1].kill(FlowStatus.REJECTED)
        assert ts.settle() is TaskOutcome.FAILED

    def test_unfinished_flows(self):
        ts = _states(_task())
        assert len(ts.unfinished_flows) == 2
        ts.flow_states[0].finish(1.0)
        assert len(ts.unfinished_flows) == 1
