"""Engine mechanics, isolated from real policies via stub schedulers."""

import pytest

from repro.sched.base import Scheduler
from repro.sim.engine import Engine
from repro.sim.state import FlowStatus, TaskOutcome
from repro.util.errors import SimulationError
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell


class ConstantRate(Scheduler):
    """Admits everything; every active flow gets a fixed rate."""

    name = "const"

    def __init__(self, rate: float, quit_on_miss: bool = True) -> None:
        super().__init__()
        self._r = rate
        self._quit = quit_on_miss

    def on_task_arrival(self, ts, now):
        ts.accepted = True
        self._admit_flows(ts)

    def assign_rates(self, now):
        for fs in self.active_flows:
            fs.rate = self._r

    def on_deadline_expired(self, fs, now):
        if self._quit:
            super().on_deadline_expired(fs, now)


class NeverSend(ConstantRate):
    """Admits flows but never gives them bandwidth — stalls."""

    name = "never"

    def __init__(self) -> None:
        # deadline-oblivious so the stall (not the deadline kill) ends it
        super().__init__(rate=0.0, quit_on_miss=False)


def _one_task(size=2.0, deadline=10.0, arrival=0.0, tid=0, fid=0):
    return make_task(tid, arrival, arrival + deadline,
                     [("L0", "R0", size)], first_flow_id=fid)


class TestBasics:
    def test_single_flow_completes_at_size_over_rate(self):
        topo = dumbbell(1)
        result = Engine(topo, [_one_task(size=3.0)], ConstantRate(1.0)).run()
        fs = result.flow_states[0]
        assert fs.status is FlowStatus.COMPLETED
        assert fs.completed_at == pytest.approx(3.0)
        assert result.tasks_completed == 1

    def test_flow_missing_deadline_terminated(self):
        topo = dumbbell(1)
        result = Engine(topo, [_one_task(size=30.0, deadline=5.0)],
                        ConstantRate(1.0)).run()
        fs = result.flow_states[0]
        assert fs.status is FlowStatus.TERMINATED
        assert not fs.met_deadline
        assert fs.bytes_sent == pytest.approx(5.0)  # sent until the deadline
        assert result.task_states[0].outcome is TaskOutcome.FAILED

    def test_deadline_agnostic_scheduler_runs_past_deadline(self):
        topo = dumbbell(1)
        result = Engine(topo, [_one_task(size=30.0, deadline=5.0)],
                        ConstantRate(1.0, quit_on_miss=False)).run()
        fs = result.flow_states[0]
        assert fs.status is FlowStatus.COMPLETED
        assert fs.completed_at == pytest.approx(30.0)
        assert not fs.met_deadline

    def test_arrivals_in_time_order(self):
        topo = dumbbell(2)
        tasks = [
            make_task(0, 5.0, 15.0, [("L0", "R0", 1.0)], 0),
            make_task(1, 1.0, 11.0, [("L1", "R1", 1.0)], 1),
        ]
        result = Engine(topo, tasks, ConstantRate(1.0)).run()
        # task 1 (arrives first) completes at 2; task 0 at 6
        by_id = {ts.task.task_id: ts for ts in result.task_states}
        assert by_id[1].flow_states[0].completed_at == pytest.approx(2.0)
        assert by_id[0].flow_states[0].completed_at == pytest.approx(6.0)

    def test_flow_not_started_before_release(self):
        topo = dumbbell(1)
        result = Engine(topo, [_one_task(size=2.0, arrival=7.0)],
                        ConstantRate(1.0)).run()
        assert result.flow_states[0].completed_at == pytest.approx(9.0)

    def test_stalled_flows_killed_for_termination(self):
        topo = dumbbell(1)
        result = Engine(topo, [_one_task()], NeverSend()).run()
        fs = result.flow_states[0]
        assert fs.status is FlowStatus.TERMINATED
        assert result.counters.stalled_kills == 1

    def test_counters(self):
        topo = dumbbell(2)
        tasks = [_one_task(tid=0, fid=0),
                 make_task(1, 0.5, 10.5, [("L1", "R1", 1.0)], 1)]
        result = Engine(topo, tasks, ConstantRate(1.0)).run()
        assert result.counters.arrivals == 2
        assert result.counters.completions == 2
        assert result.counters.events > 0

    def test_max_events_guard(self):
        topo = dumbbell(1)
        engine = Engine(topo, [_one_task()], ConstantRate(1.0), max_events=1)
        with pytest.raises(SimulationError):
            engine.run()

    def test_result_metadata(self):
        topo = dumbbell(1)
        result = Engine(topo, [_one_task()], ConstantRate(1.0)).run()
        assert result.scheduler_name == "const"
        assert result.topology_name == topo.name


class TestHooks:
    def test_advance_hook_called(self):
        windows = []

        class Hook:
            def on_advance(self, t0, t1, flows):
                windows.append((t0, t1, [fs.flow.flow_id for fs in flows]))

        topo = dumbbell(1)
        result = Engine(topo, [_one_task()], ConstantRate(1.0),
                        hooks=(Hook(),)).run()
        assert windows == [(0.0, 2.0, [0])]
        assert result.task_states[0].outcome is TaskOutcome.COMPLETED


class TestNumerics:
    def test_progress_conservation(self):
        """bytes_sent + remaining == size for every flow, always."""
        topo = dumbbell(3)
        tasks = [
            make_task(i, i * 0.3, i * 0.3 + 4.0, [(f"L{i}", f"R{i}", 2.5)], i)
            for i in range(3)
        ]
        result = Engine(topo, tasks, ConstantRate(0.7)).run()
        for fs in result.flow_states:
            assert fs.bytes_sent + fs.remaining == pytest.approx(fs.flow.size, rel=1e-6)

    def test_completion_exactly_at_deadline_counts_met(self):
        topo = dumbbell(1)
        # size 5 at rate 1 with deadline exactly 5
        result = Engine(topo, [_one_task(size=5.0, deadline=5.0)],
                        ConstantRate(1.0)).run()
        assert result.flow_states[0].met_deadline

    def test_many_simultaneous_arrivals(self):
        topo = dumbbell(8)
        tasks = [
            make_task(i, 0.0, 100.0, [(f"L{i}", f"R{i}", 1.0)], i)
            for i in range(8)
        ]
        result = Engine(topo, tasks, ConstantRate(1.0)).run()
        assert result.tasks_completed == 8


def test_engine_is_single_shot():
    topo = dumbbell(1)
    engine = Engine(topo, [_one_task()], ConstantRate(1.0))
    engine.run()
    with pytest.raises(SimulationError):
        engine.run()
