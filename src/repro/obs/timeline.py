"""Per-entity timelines reconstructed from a decision trace.

The decision trace (:mod:`repro.trace.events`) is a flat causal stream:
one line per decision or physical fact.  Operators ask entity-shaped
questions — *what happened to task 17*, *when was link 12 busy and for
whom* — so this module pivots the stream into per-task, per-flow, and
per-link timelines:

* :class:`TaskTimeline` — the task's own events (arrival, trials,
  rollbacks, accept/reject, preemption, drop), then completion/expiry;
* :class:`FlowTimeline` — the physical transmission slices (after
  down-link zeroing), completion, expiry;
* :class:`LinkTimeline` — busy intervals (which flow of which task held
  the link when) and outage windows.

Everything is trace-in, timeline-out: nothing here imports the scheduler
or the engine, so a JSONL file from any run — or any machine — can be
pivoted offline.  A task's decisions and the committed plan tables stay
the trace's own events, not copies of their fields.  The timeline is the
shared substrate for the Chrome trace exporter
(:mod:`repro.obs.chrometrace`) and the rejection explainer
(:mod:`repro.obs.explain`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.trace.events import (
    FaultReallocation,
    Preemption,
    TaskAccept,
    TaskArrival,
    TaskDrop,
    TaskReject,
    TraceEvent,
    TrialBegin,
    TrialRollback,
)
from repro.trace.recorder import TraceRecorder


@dataclass(slots=True)
class FlowSlice:
    """One physical transmission interval of a flow."""

    start: float
    end: float | None
    path: tuple[int, ...]


@dataclass(slots=True)
class FlowTimeline:
    """One flow's physical lifecycle."""

    flow_id: int
    task_id: int
    slices: list[FlowSlice] = field(default_factory=list)
    completed_at: float | None = None
    met_deadline: bool | None = None
    expired_at: float | None = None


@dataclass(slots=True)
class TaskTimeline:
    """One task's full lifecycle, admission through settlement: its own
    decision events, in trace order, and how its flows settled."""

    task_id: int
    arrival: TaskArrival | None = None
    trials: list[TrialBegin] = field(default_factory=list)
    #: the trials that ended in discard-victim, in order
    rollbacks: list[TrialRollback] = field(default_factory=list)
    decision: TaskAccept | TaskReject | None = None
    preemption: Preemption | None = None
    drop: TaskDrop | None = None
    flows: list[int] = field(default_factory=list)
    completed_at: float | None = None
    flows_completed: int = 0
    flows_expired: int = 0

    @property
    def deadline(self) -> float | None:
        return self.arrival.deadline if self.arrival is not None else None

    @property
    def rejection(self) -> TaskReject | None:
        """The decision, when it refused the task."""
        return self.decision if isinstance(self.decision, TaskReject) else None

    @property
    def outcome(self) -> str:
        """The settled fate: ``rejected`` / ``preempted`` / ``dropped`` /
        ``completed`` / ``expired`` / ``incomplete``."""
        if self.rejection is not None:
            return "rejected"
        if self.preemption is not None:
            return "preempted"
        if self.drop is not None:
            return "dropped"
        if self.completed_at is not None:
            return "completed"
        if self.flows_expired:
            return "expired"
        return "incomplete"

    @property
    def settled_at(self) -> float | None:
        """When the fate was sealed (rejection, preemption, drop, or last
        flow completion) — ``None`` for incomplete tasks."""
        for ev in (self.rejection, self.preemption, self.drop):
            if ev is not None:
                return ev.time
        return self.completed_at


@dataclass(slots=True)
class LinkInterval:
    """One exclusive occupancy of a link by a flow."""

    start: float
    end: float | None
    flow_id: int
    task_id: int


@dataclass(slots=True)
class LinkTimeline:
    """One link's busy intervals and outage windows."""

    link: int
    busy: list[LinkInterval] = field(default_factory=list)
    outages: list[tuple[float, float | None]] = field(default_factory=list)

    def down_at(self, t: float) -> bool:
        """Whether the link was inside an outage window at ``t``."""
        return any(
            s <= t and (e is None or t < e) for s, e in self.outages
        )


@dataclass(slots=True)
class RunTimeline:
    """The pivoted view of one run's decision trace."""

    meta: dict[str, Any] = field(default_factory=dict)
    tasks: dict[int, TaskTimeline] = field(default_factory=dict)
    flows: dict[int, FlowTimeline] = field(default_factory=dict)
    links: dict[int, LinkTimeline] = field(default_factory=dict)
    #: every committed plan table: the ``task-accept`` and
    #: ``fault-reallocation`` events, in trace order
    plan_snapshots: list[TaskAccept | FaultReallocation] = field(
        default_factory=list
    )
    end_time: float = 0.0
    events: int = 0

    def snapshot_before(self, seq: int) -> TaskAccept | FaultReallocation | None:
        """The plan table in force just before event ``seq`` (the latest
        accept/reallocation with a smaller sequence number)."""
        seqs = [s.seq for s in self.plan_snapshots]
        i = bisect.bisect_left(seqs, seq)
        return self.plan_snapshots[i - 1] if i else None

    def outcomes(self) -> dict[str, list[int]]:
        """Task ids grouped by settled outcome, each list sorted."""
        out: dict[str, list[int]] = {}
        for tid in sorted(self.tasks):
            out.setdefault(self.tasks[tid].outcome, []).append(tid)
        return out


def _task(tl: RunTimeline, task_id: int) -> TaskTimeline:
    t = tl.tasks.get(task_id)
    if t is None:
        t = tl.tasks[task_id] = TaskTimeline(task_id=task_id)
    return t


def _link(tl: RunTimeline, link: int) -> LinkTimeline:
    entry = tl.links.get(link)
    if entry is None:
        entry = tl.links[link] = LinkTimeline(link=link)
    return entry


def build_timeline(
    events: Iterable[TraceEvent], meta: dict[str, Any] | None = None
) -> RunTimeline:
    """Pivot an event stream into a :class:`RunTimeline` (single pass)."""
    tl = RunTimeline(meta=dict(meta) if meta else {})
    open_slices: dict[int, FlowSlice] = {}
    open_links: dict[int, dict[int, LinkInterval]] = {}  # flow -> link -> iv
    down: set[int] = set()
    for ev in events:
        tl.events += 1
        tl.end_time = max(tl.end_time, ev.time)
        kind = ev.kind
        if kind == "task-arrival":
            _task(tl, ev.task_id).arrival = ev
        elif kind == "trial-begin":
            _task(tl, ev.task_id).trials.append(ev)
        elif kind == "trial-rollback":
            _task(tl, ev.task_id).rollbacks.append(ev)
        elif kind == "task-accept":
            _task(tl, ev.task_id).decision = ev
            tl.plan_snapshots.append(ev)
        elif kind == "task-reject":
            _task(tl, ev.task_id).decision = ev
        elif kind == "preemption":
            _task(tl, ev.victim_task_id).preemption = ev
        elif kind == "fault-reallocation":
            tl.plan_snapshots.append(ev)
        elif kind == "task-drop":
            _task(tl, ev.task_id).drop = ev
        elif kind == "link-state-change":
            new_down = set(ev.down_links)
            for link in sorted(new_down - down):
                _link(tl, link).outages.append((ev.time, None))
            for link in sorted(down - new_down):
                entry = _link(tl, link)
                if entry.outages and entry.outages[-1][1] is None:
                    entry.outages[-1] = (entry.outages[-1][0], ev.time)
            down = new_down
        elif kind == "slice-start":
            flow = tl.flows.get(ev.flow_id)
            if flow is None:
                flow = tl.flows[ev.flow_id] = FlowTimeline(
                    ev.flow_id, ev.task_id
                )
                _task(tl, ev.task_id).flows.append(ev.flow_id)
            sl = FlowSlice(ev.time, None, ev.path)
            flow.slices.append(sl)
            open_slices[ev.flow_id] = sl
            held = open_links.setdefault(ev.flow_id, {})
            for link in ev.path:
                iv = LinkInterval(ev.time, None, ev.flow_id, ev.task_id)
                _link(tl, link).busy.append(iv)
                held[link] = iv
        elif kind == "slice-end":
            sl = open_slices.pop(ev.flow_id, None)
            if sl is not None:
                sl.end = ev.time
            for iv in open_links.pop(ev.flow_id, {}).values():
                iv.end = ev.time
        elif kind == "flow-completed":
            flow = tl.flows.get(ev.flow_id)
            if flow is None:
                flow = tl.flows[ev.flow_id] = FlowTimeline(
                    ev.flow_id, ev.task_id
                )
                _task(tl, ev.task_id).flows.append(ev.flow_id)
            flow.completed_at = ev.time
            flow.met_deadline = ev.met_deadline
            task = _task(tl, ev.task_id)
            task.flows_completed += 1
            if (task.arrival is not None
                    and task.flows_completed == task.arrival.num_flows):
                task.completed_at = ev.time
        elif kind == "deadline-expired":
            flow = tl.flows.get(ev.flow_id)
            if flow is not None:
                flow.expired_at = ev.time
            _task(tl, ev.task_id).flows_expired += 1
    # close whatever the horizon cut mid-interval
    for sl in open_slices.values():
        sl.end = tl.end_time
    for held in open_links.values():
        for iv in held.values():
            iv.end = tl.end_time
    return tl


def timeline_from(trace: TraceRecorder) -> RunTimeline:
    """Pivot a recorded or loaded trace."""
    return build_timeline(trace.events, trace.meta)
