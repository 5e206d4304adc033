"""Per-entity timelines reconstructed from a decision trace.

The decision trace (:mod:`repro.trace.events`) is a flat causal stream:
one line per decision or physical fact.  Operators ask entity-shaped
questions — *what happened to task 17*, *when was link 12 busy and for
whom*, *how did task 9's deadline slack evolve as the controller
re-planned around it* — so this module pivots the stream into per-task,
per-flow, and per-link timelines:

* :class:`TaskTimeline` — arrival → trials → accept/reject →
  preemption/drop → completion/expiry, plus a deadline-slack series
  sampled at every committed plan table that mentions the task;
* :class:`FlowTimeline` — the physical transmission slices (after
  down-link zeroing), completion, expiry;
* :class:`LinkTimeline` — busy intervals (which flow of which task held
  the link when) and outage windows.

Everything is trace-in, timeline-out: nothing here imports the scheduler
or the engine, so a JSONL file from any run — or any machine — can be
pivoted offline.  The timeline is the shared substrate for the Chrome
trace exporter (:mod:`repro.obs.chrometrace`) and the rejection
explainer (:mod:`repro.obs.explain`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.trace.events import PlanRecord, TraceEvent
from repro.trace.recorder import LoadedTrace, TraceRecorder


@dataclass(slots=True)
class TrialRecord:
    """One Alg. 1 trial during a task's admission."""

    attempt: int
    time: float
    num_flows: int
    #: set when the trial ended in discard-victim (the retried victim)
    rollback_victim: int | None = None
    victim_ratio: float | None = None
    new_ratio: float | None = None


@dataclass(slots=True)
class FlowSlice:
    """One physical transmission interval of a flow."""

    start: float
    end: float | None
    path: tuple[int, ...]

    def duration(self, until: float) -> float:
        return max(0.0, (self.end if self.end is not None else until) - self.start)


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
    """One task's full lifecycle, admission through settlement."""

    task_id: int
    arrival: float | None = None
    deadline: float | None = None
    num_flows: int = 0
    total_bytes: float = 0.0
    flows: list[int] = field(default_factory=list)
    trials: list[TrialRecord] = field(default_factory=list)
    #: admission decision: ``"accepted"`` / ``"rejected"`` / ``None``
    decision: str | None = None
    decision_time: float | None = None
    decision_seq: int | None = None
    victims: tuple[int, ...] = ()
    reject_reason: str | None = None
    reject_clause: int | None = None
    reject_missing: tuple[tuple[int, int], ...] = ()
    reject_lateness: tuple[tuple[int, float], ...] = ()
    reject_victim_ratio: float | None = None
    reject_new_ratio: float | None = None
    preempted_by: int | None = None
    preempted_at: float | None = None
    killed_flows: tuple[int, ...] = ()
    dropped_cause: str | None = None
    dropped_at: float | None = None
    completed_at: float | None = None
    flows_completed: int = 0
    flows_expired: int = 0
    #: ``(time, slack)`` samples: min over the task's planned flows of
    #: ``deadline − planned completion``, one point per committed table
    slack_series: list[tuple[float, float]] = field(default_factory=list)

    @property
    def outcome(self) -> str:
        """The settled fate: ``rejected`` / ``preempted`` / ``dropped`` /
        ``completed`` / ``expired`` / ``incomplete``."""
        if self.decision == "rejected":
            return "rejected"
        if self.preempted_by is not None:
            return "preempted"
        if self.dropped_cause is not None:
            return "dropped"
        if self.completed_at is not None:
            return "completed"
        if self.flows_expired:
            return "expired"
        return "incomplete"

    @property
    def settled_at(self) -> float | None:
        """When the fate was sealed (decision, preemption, drop, or last
        flow completion) — ``None`` for incomplete tasks."""
        if self.decision == "rejected":
            return self.decision_time
        if self.preempted_by is not None:
            return self.preempted_at
        if self.dropped_cause is not None:
            return self.dropped_at
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
class PlanSnapshot:
    """One committed plan table (accept or fault-reallocation)."""

    time: float
    seq: int
    kind: str
    plans: tuple[PlanRecord, ...]


@dataclass(slots=True)
class RunTimeline:
    """The pivoted view of one run's decision trace."""

    meta: dict[str, Any] = field(default_factory=dict)
    tasks: dict[int, TaskTimeline] = field(default_factory=dict)
    flows: dict[int, FlowTimeline] = field(default_factory=dict)
    links: dict[int, LinkTimeline] = field(default_factory=dict)
    plan_snapshots: list[PlanSnapshot] = field(default_factory=list)
    end_time: float = 0.0
    events: int = 0

    def snapshot_before(self, seq: int) -> PlanSnapshot | None:
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


def _sample_slack(tl: RunTimeline, time: float,
                  plans: tuple[PlanRecord, ...]) -> None:
    by_task: dict[int, float] = {}
    for pr in plans:
        slack = pr.deadline - pr.completion
        prev = by_task.get(pr.task_id)
        by_task[pr.task_id] = slack if prev is None else min(prev, slack)
    for task_id, slack in by_task.items():
        _task(tl, task_id).slack_series.append((time, slack))


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
            task = _task(tl, ev.task_id)
            task.arrival = ev.time
            task.deadline = ev.deadline
            task.num_flows = ev.num_flows
            task.total_bytes = ev.total_bytes
        elif kind == "trial-begin":
            _task(tl, ev.task_id).trials.append(
                TrialRecord(ev.attempt, ev.time, len(ev.flows))
            )
        elif kind == "trial-rollback":
            trials = _task(tl, ev.task_id).trials
            if trials:
                trials[-1].rollback_victim = ev.victim_task_id
                trials[-1].victim_ratio = ev.victim_ratio
                trials[-1].new_ratio = ev.new_ratio
        elif kind == "task-accept":
            task = _task(tl, ev.task_id)
            task.decision = "accepted"
            task.decision_time = ev.time
            task.decision_seq = ev.seq
            task.victims = ev.victims
            tl.plan_snapshots.append(
                PlanSnapshot(ev.time, ev.seq, kind, ev.plans)
            )
            _sample_slack(tl, ev.time, ev.plans)
        elif kind == "task-reject":
            task = _task(tl, ev.task_id)
            task.decision = "rejected"
            task.decision_time = ev.time
            task.decision_seq = ev.seq
            task.reject_reason = ev.reason
            task.reject_clause = ev.clause
            task.reject_missing = ev.missing
            task.reject_lateness = ev.lateness
            task.reject_victim_ratio = ev.victim_ratio
            task.reject_new_ratio = ev.new_ratio
        elif kind == "preemption":
            task = _task(tl, ev.victim_task_id)
            task.preempted_by = ev.by_task_id
            task.preempted_at = ev.time
            task.killed_flows = ev.killed_flows
        elif kind == "fault-reallocation":
            tl.plan_snapshots.append(
                PlanSnapshot(ev.time, ev.seq, kind, ev.plans)
            )
            _sample_slack(tl, ev.time, ev.plans)
        elif kind == "task-drop":
            task = _task(tl, ev.task_id)
            task.dropped_cause = ev.cause
            task.dropped_at = ev.time
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
            if task.num_flows and task.flows_completed == task.num_flows:
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


def timeline_from(trace: TraceRecorder | LoadedTrace) -> RunTimeline:
    """Pivot a recorder's buffer or a loaded JSONL trace."""
    return build_timeline(trace.events, trace.meta)
