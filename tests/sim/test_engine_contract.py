"""Engine corner cases that pin the exact event-time sequence.

The engine advances, completes and re-times only the flows that are
sending (``rate > 0``), and takes the deadline term of its next-event
time from a heap over the active flows.  These stub-scheduler runs pin
what that must preserve:

* a flow killed during an event still bounds that event's next-event
  time by its own deadline — it leaves the active set only when the
  event settles;
* a flow killed inside ``assign_rates`` (a batch flush rejecting a task)
  marks the allocation dirty, so rates are recomputed at the next event;
* ``on_advance`` hooks receive every active flow, sending or not;
* a flow that is complete on arrival still completes without sending;
* a task settles at the event its last flow leaves the active set.
"""

import pytest

from repro.core.controller import TapsScheduler
from repro.sched.base import Scheduler
from repro.sim.engine import Engine
from repro.sim.faults import LinkFault
from repro.sim.state import FlowStatus
from repro.trace import TraceRecorder
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell


class _Recorder:
    """Hook: every ``on_advance`` window and the flows it was given."""

    def __init__(self) -> None:
        self.windows: list[tuple[float, float, list[int]]] = []

    def on_advance(self, t0, t1, flows):
        self.windows.append((t0, t1, [fs.flow.flow_id for fs in flows]))


class _Stub(Scheduler):
    """Unit-rate, unrouted flows; records when the engine calls in."""

    name = "stub"

    def __init__(self) -> None:
        super().__init__()
        self.rate_calls: list[float] = []
        self.change_calls: list[float] = []

    def on_task_arrival(self, task_state, now):
        self._admit_flows(task_state, use_ecmp=False)

    def assign_rates(self, now):
        self.rate_calls.append(now)
        for fs in self.active_flows:
            fs.rate = 1.0

    def next_change(self, now):
        self.change_calls.append(now)
        return None


def test_flow_killed_on_link_change_still_bounds_next_event():
    """Flow 0 is killed by the scheduler's reaction to a link failure at
    t=1; its deadline (1.5) is still the next event of that instant."""

    class KillOnFault(_Stub):
        def on_link_state_change(self, down_links, now):
            for fs in list(self.active_flows):
                if down_links and fs.flow.flow_id == 0:
                    fs.kill(FlowStatus.TERMINATED)
                    self._drop(fs)

    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 1.5, [("L0", "R0", 100.0)], 0),
        make_task(1, 0.0, 20.0, [("L1", "R1", 8.0)], 1),
    ]
    sched, hook = KillOnFault(), _Recorder()
    result = Engine(topo, tasks, sched, hooks=(hook,),
                    faults=[LinkFault(0, 1.0, 5.0)]).run()
    assert sched.change_calls == [0.0, 1.0, 1.5, 5.0, 8.0]
    assert result.counters.events == 5
    assert result.counters.deadline_events == 0
    assert hook.windows == [
        (0.0, 1.0, [0, 1]),
        (1.0, 1.5, [0, 1]),  # flow 0 is dead but still active
        (1.5, 5.0, [1]),
        (5.0, 8.0, [1]),
    ]
    assert result.flow_states[0].status is FlowStatus.TERMINATED
    assert result.flow_states[1].completed_at == pytest.approx(8.0)


def test_flow_killed_in_assign_rates_marks_allocation_dirty():
    """A batch flush at t=0.5 rejects task 0 inside ``assign_rates``.
    Nothing else changes at the next event (t=1, a deadline the scheduler
    ignores), yet rates are recomputed there: the rejected flows left the
    active set, which dirties the allocation."""

    class Batched(_Stub):
        def __init__(self) -> None:
            super().__init__()
            self.held = []

        def on_task_arrival(self, task_state, now):
            self.held.append(task_state)

        def assign_rates(self, now):
            if self.held and now >= 0.5:
                held, self.held = self.held, []
                for ts in held:
                    if ts.task.task_id == 0:
                        self._reject_task(ts)
                    else:
                        self._admit_flows(ts, use_ecmp=False)
            super().assign_rates(now)

        def next_change(self, now):
            super().next_change(now)
            return 0.5 if self.held else None

        def on_deadline_expired(self, fs, now):
            pass  # keep sending past the deadline

    topo = dumbbell(3)
    tasks = [
        make_task(0, 0.0, 10.0, [("L0", "R0", 1.0)], 0),
        make_task(1, 0.0, 10.0, [("L1", "R1", 2.0)], 1),
        make_task(2, 0.0, 1.0, [("L2", "R2", 5.0)], 2),
    ]
    sched, hook = Batched(), _Recorder()
    result = Engine(topo, tasks, sched, hooks=(hook,)).run()
    assert sched.change_calls == [0.0, 0.5, 1.0, 2.5, 5.5]
    assert sched.rate_calls == [0.0, 0.5, 1.0, 2.5, 5.5]
    assert result.counters.rate_recomputes == 5
    assert result.counters.deadline_events == 1
    assert hook.windows == [
        (0.0, 0.5, [0, 1, 2]),
        (0.5, 1.0, [0, 1, 2]),  # flow 0 was rejected at 0.5
        (1.0, 2.5, [1, 2]),
        (2.5, 5.5, [2]),
    ]
    assert [fs.status for fs in result.flow_states] == [
        FlowStatus.REJECTED, FlowStatus.COMPLETED, FlowStatus.COMPLETED,
    ]


def test_on_advance_receives_waiting_flows():
    """TAPS serialises two flows on the dumbbell's shared cable; while
    one sends, the waiting one is still handed to ``on_advance``."""
    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0),
        make_task(1, 0.0, 10.0, [("L1", "R1", 2.0)], 1),
    ]
    hook = _Recorder()
    result = Engine(topo, tasks, TapsScheduler(), hooks=(hook,)).run()
    assert [ids for _, _, ids in hook.windows] == [[0, 1], [1]]
    assert [(t0, t1) for t0, t1, _ in hook.windows] == [
        (0.0, pytest.approx(2.0)), (pytest.approx(2.0), pytest.approx(4.0)),
    ]
    assert result.tasks_completed == 2


def test_flow_complete_on_arrival_settles_with_its_event():
    """A flow below the completion tolerance never sends, yet completes
    when its arrival event settles, in order with a sibling finishing at
    the same instant."""

    class BigOnly(_Stub):
        def assign_rates(self, now):
            for fs in self.active_flows:
                fs.rate = 1.0 if fs.flow.size >= 1.0 else 0.0

    topo = dumbbell(2)
    tasks = [make_task(0, 1.0, 5.0, [("L0", "R0", 1e-10), ("L1", "R1", 2.0)],
                       0)]
    recorder = TraceRecorder()
    result = Engine(topo, tasks, BigOnly(), trace=recorder).run()
    assert [fs.completed_at for fs in result.flow_states] == [3.0, 3.0]
    assert result.counters.events == 3
    assert [e.flow_id for e in recorder.events_of_kind("flow-completed")] == [0, 1]
    assert result.tasks_completed == 1


def test_tasks_settle_at_the_event_their_last_flow_leaves():
    """Settlement is checked only for tasks whose flows arrived or left
    the active set at an event; each task still settles at exactly that
    event, and tasks settling together keep the engine's order."""

    class Settled:
        def __init__(self) -> None:
            self.calls: list[tuple[int, float]] = []

        def on_task_settled(self, ts, now):
            self.calls.append((ts.task.task_id, now))

    topo = dumbbell(4)
    tasks = [
        make_task(5, 0.0, 10.0, [("L0", "R0", 2.0), ("L1", "R1", 4.0)], 0),
        make_task(1, 0.0, 10.0, [("L2", "R2", 4.0)], 2),
        make_task(3, 0.0, 3.0, [("L3", "R3", 10.0)], 3),  # killed at 3
        make_task(2, 0.0, 10.0, [("L0", "R0", 1.0)], 4),
        make_task(7, 0.0, 10.0, [("L1", "R1", 6.0)], 5),
    ]
    hook = Settled()
    Engine(topo, tasks, _Stub(), hooks=(hook,)).run()
    assert hook.calls == [(2, 1.0), (1, 4.0), (3, 4.0), (5, 4.0), (7, 6.0)]
