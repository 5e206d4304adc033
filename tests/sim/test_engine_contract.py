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
* ``on_advance`` hooks receive only the sending flows;
* a flow that is complete on arrival still completes without sending;
* every task that arrived settles once, when the run ends.

After a rate recompute the engine trusts the scheduler's rate report
(``Scheduler.rate_changes``) for the sending set and the slice events.
The stubs below report exactly the rates they change, and pin what the
engine must still see for itself:

* flows that complete at one instant are finished in arrival order, not
  in the order they started sending;
* a flow killed inside ``assign_rates`` and left out of the report stops
  at once, and so does a flow killed at its deadline (step 2);
* after a fault transition a sending flow on a down link stops although
  the report does not name it.
"""

import pytest

from repro.core.controller import TapsScheduler
from repro.sched.base import Scheduler
from repro.sim.engine import Engine
from repro.sim.faults import LinkFault
from repro.sim.state import FlowStatus, TaskOutcome
from repro.trace.events import SliceEnd, SliceStart
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
        (1.0, 1.5, [1]),  # ends at the deadline of flow 0, dead at 1.0
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
        (0.0, 0.5, []),  # nothing sends until the flush
        (0.5, 1.0, [1, 2]),  # flow 0 was rejected at 0.5
        (1.0, 2.5, [1, 2]),
        (2.5, 5.5, [2]),
    ]
    assert [fs.status for fs in result.flow_states] == [
        FlowStatus.REJECTED, FlowStatus.COMPLETED, FlowStatus.COMPLETED,
    ]


def test_on_advance_receives_only_sending_flows():
    """TAPS serialises two flows on the dumbbell's shared cable; while
    one sends, the waiting one is not handed to ``on_advance``."""
    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0),
        make_task(1, 0.0, 10.0, [("L1", "R1", 2.0)], 1),
    ]
    hook = _Recorder()
    result = Engine(topo, tasks, TapsScheduler(), hooks=(hook,)).run()
    assert [ids for _, _, ids in hook.windows] == [[0], [1]]
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


def test_tasks_settle_once_at_run_end():
    """Every task that arrived gets its outcome when the run ends: one
    whose flows all completed in time, one killed at its deadline, one
    still sending at the horizon.  A task the horizon cut off before it
    arrived stays pending."""
    topo = dumbbell(4)
    tasks = [
        make_task(5, 0.0, 10.0, [("L0", "R0", 2.0), ("L1", "R1", 4.0)], 0),
        make_task(3, 0.0, 3.0, [("L3", "R3", 10.0)], 2),  # killed at 3
        make_task(1, 0.0, 20.0, [("L2", "R2", 10.0)], 3),  # cut at 6
        make_task(8, 7.0, 20.0, [("L0", "R0", 1.0)], 4),  # arrives at 7
    ]
    result = Engine(topo, tasks, _Stub(), horizon=6.0).run()
    assert result.finished_at == 6.0
    assert {ts.task.task_id: ts.outcome for ts in result.task_states} == {
        5: TaskOutcome.COMPLETED, 3: TaskOutcome.FAILED,
        1: TaskOutcome.FAILED, 8: TaskOutcome.PENDING,
    }


class _Reporting(_Stub):
    """Routed unit-rate flows; reports exactly the rates it changes."""

    def on_task_arrival(self, task_state, now):
        self._admit_flows(task_state)

    def assign_rates(self, now):
        self.rate_calls.append(now)
        self.rate_changes = []
        for fs in self.active_flows:
            if fs.rate != 1.0:
                fs.rate = 1.0
                self.rate_changes.append(fs)


def _slices(recorder):
    """(time, kind, flow id) of every slice event."""
    return [
        (e.time, e.kind, e.flow_id) for e in recorder
        if isinstance(e, (SliceStart, SliceEnd))
    ]


def test_same_instant_completions_keep_arrival_order():
    """Flow 1 starts sending at t=0 and flow 0 at t=1; both complete at
    t=3.  They are finished, traced and passed to ``on_flow_completed``
    in arrival order."""

    class Staggered(_Reporting):
        def __init__(self) -> None:
            super().__init__()
            self.completed: list[int] = []

        def assign_rates(self, now):
            self.rate_changes = []
            for fs in self.active_flows:
                if fs.rate == 0.0 and (fs.flow.flow_id == 1 or now >= 1.0):
                    fs.rate = 1.0
                    self.rate_changes.append(fs)

        def next_change(self, now):
            return 1.0 if now < 1.0 else None

        def on_flow_completed(self, fs, now):
            self.completed.append(fs.flow.flow_id)
            super().on_flow_completed(fs, now)

    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0),
        make_task(1, 0.0, 10.0, [("L1", "R1", 3.0)], 1),
    ]
    sched, recorder = Staggered(), TraceRecorder()
    result = Engine(topo, tasks, sched, trace=recorder).run()
    assert [fs.completed_at for fs in result.flow_states] == [3.0, 3.0]
    assert [e.flow_id for e in recorder.events_of_kind("flow-completed")] == [0, 1]
    assert sched.completed == [0, 1]


def test_flow_killed_in_assign_rates_stops_though_unreported():
    """At t=1 the scheduler kills sending flow 0 inside ``assign_rates``
    and reports no change: the flow stops at once and its slice ends at
    t=1."""

    class KillInRates(_Reporting):
        def assign_rates(self, now):
            if now < 1.0:
                super().assign_rates(now)
                return
            for fs in list(self.active_flows):
                if fs.flow.flow_id == 0:
                    fs.kill(FlowStatus.TERMINATED)
                    self._drop(fs)
            self.rate_changes = []

        def next_change(self, now):
            return 1.0 if now < 1.0 else None

    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 20.0, [("L0", "R0", 10.0)], 0),
        make_task(1, 0.0, 20.0, [("L1", "R1", 4.0)], 1),
    ]
    recorder = TraceRecorder()
    result = Engine(topo, tasks, KillInRates(), trace=recorder).run()
    killed, other = result.flow_states
    assert killed.status is FlowStatus.TERMINATED
    assert killed.bytes_sent == 1.0
    assert other.completed_at == 4.0
    assert _slices(recorder) == [
        (0.0, "slice-start", 0), (0.0, "slice-start", 1),
        (1.0, "slice-end", 0), (4.0, "slice-end", 1),
    ]


def test_flow_killed_at_its_deadline_ends_its_slice_at_once():
    """Flow 0 misses its deadline at t=1 and the default reaction kills it
    (step 2).  The rate report that follows names no flow, yet flow 0's
    slice ends at t=1."""
    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 1.0, [("L0", "R0", 10.0)], 0),
        make_task(1, 0.0, 20.0, [("L1", "R1", 4.0)], 1),
    ]
    recorder = TraceRecorder()
    sched = _Reporting()
    result = Engine(topo, tasks, sched, trace=recorder).run()
    assert sched.rate_calls == [0.0, 1.0, 4.0]
    assert result.counters.deadline_events == 1
    assert result.flow_states[0].bytes_sent == 1.0
    assert _slices(recorder) == [
        (0.0, "slice-start", 0), (0.0, "slice-start", 1),
        (1.0, "slice-end", 0), (4.0, "slice-end", 1),
    ]


def test_fault_stops_a_sending_flow_the_report_omits():
    """Flow 0's first link is down from t=1 to t=2.  The scheduler's
    report at t=1 names no flow, yet flow 0 stops at t=1: at a fault
    transition the engine re-checks every sending flow against the down
    links.  It resumes when the scheduler restores its rate at t=2."""
    topo = dumbbell(2)
    link = topo.link("L0", "SL").index
    tasks = [
        make_task(0, 0.0, 20.0, [("L0", "R0", 4.0)], 0),
        make_task(1, 0.0, 20.0, [("L1", "R1", 3.0)], 1),
    ]
    recorder = TraceRecorder()
    sched = _Reporting()
    result = Engine(topo, tasks, sched, trace=recorder,
                    faults=[LinkFault(link, 1.0, 2.0)]).run()
    assert sched.rate_calls == [0.0, 1.0, 2.0, 3.0, 5.0]
    assert [fs.completed_at for fs in result.flow_states] == [5.0, 3.0]
    assert _slices(recorder) == [
        (0.0, "slice-start", 0), (0.0, "slice-start", 1),
        (1.0, "slice-end", 0), (2.0, "slice-start", 0),
        (3.0, "slice-end", 1), (5.0, "slice-end", 0),
    ]
