"""Human-readable verdicts for tasks the controller refused or killed.

``repro-taps explain <run-dir> --task T`` answers the operator question
the raw trace only implies: *why* did task T not finish?  For each
rejected / preempted / dropped / expired task the explainer renders a
:class:`TaskVerdict` naming

* the Alg. 1 reject clause that fired — both as *recorded* by the
  controller and as *re-derived* from the missing-flow evidence by the
  trace auditor's own classifier (:func:`repro.trace.audit.derive_clause`),
  so an inconsistent clause is surfaced rather than papered over;
* the busiest links over the task's admission window and the competing
  tasks whose committed occupancy blocked it (from the plan table in
  force at the decision);
* the deadline slack at decision time and the worst per-flow lateness.

Everything is computed from the :class:`~repro.obs.timeline.RunTimeline`
alone — no re-simulation, no scheduler imports — so a verdict can be
rendered for any exported trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.timeline import RunTimeline, TaskTimeline
from repro.trace.audit import derive_clause

#: clause meanings, for report text (paper Alg. 1 reject rule)
CLAUSE_TEXT = {
    1: "several existing tasks would miss their deadlines",
    2: "the newcomer's own flows cannot meet their deadlines",
    3: "one victim task would miss, and the completion-ratio "
       "comparison kept it",
}

#: non-clause rejection reasons, for report text
REASON_TEXT = {
    "deadline-expired": "the deadline had already passed on arrival "
                        "(admission latency)",
    "unreachable": "no usable path existed between the endpoints",
    "would-miss": "the trial allocation missed at least one deadline",
}


@dataclass(slots=True)
class LinkPressure:
    """One link's committed occupancy over a task's admission window."""

    link: int
    busy_fraction: float
    holders: tuple[int, ...]  # task ids, by held time desc


@dataclass(slots=True)
class TaskVerdict:
    """The explainer's full answer for one task."""

    task_id: int
    outcome: str
    time: float | None
    headline: str
    details: list[str] = field(default_factory=list)
    reject_reason: str | None = None
    clause_recorded: int | None = None
    clause_derived: int | None = None
    clause_consistent: bool = True
    slack_at_decision: float | None = None
    worst_lateness: float | None = None
    saturated_links: list[LinkPressure] = field(default_factory=list)
    competing_tasks: tuple[int, ...] = ()

    def lines(self) -> list[str]:
        out = [self.headline]
        out.extend(f"  {d}" for d in self.details)
        return out

    def to_json(self) -> dict[str, Any]:
        return {
            "task": self.task_id,
            "outcome": self.outcome,
            "time": self.time,
            "headline": self.headline,
            "details": list(self.details),
            "reject_reason": self.reject_reason,
            "clause_recorded": self.clause_recorded,
            "clause_derived": self.clause_derived,
            "clause_consistent": self.clause_consistent,
            "slack_at_decision": self.slack_at_decision,
            "worst_lateness": self.worst_lateness,
            "saturated_links": [
                {"link": p.link, "busy_fraction": p.busy_fraction,
                 "holders": list(p.holders)}
                for p in self.saturated_links
            ],
            "competing_tasks": list(self.competing_tasks),
        }


def _window_pressure(
    tl: RunTimeline, task: TaskTimeline, top: int = 5
) -> tuple[list[LinkPressure], tuple[int, ...]]:
    """Committed link occupancy over ``[decision, deadline]`` from the
    plan table in force when the decision was made."""
    decision, deadline = task.decision, task.deadline
    if deadline is None or deadline <= decision.time:
        return [], ()
    snap = tl.snapshot_before(decision.seq)
    if snap is None:
        return [], ()
    w0, w1 = decision.time, deadline
    span = w1 - w0
    held: dict[int, float] = {}          # link -> occupied time
    holders: dict[int, dict[int, float]] = {}  # link -> task -> time
    for pr in snap.plans:
        if pr.task_id == task.task_id:
            continue
        occupied = 0.0
        for i in range(0, len(pr.slices), 2):
            s, e = pr.slices[i], pr.slices[i + 1]
            occupied += max(0.0, min(e, w1) - max(s, w0))
        if occupied <= 0.0:
            continue
        for link in pr.path:
            held[link] = held.get(link, 0.0) + occupied
            by_task = holders.setdefault(link, {})
            by_task[pr.task_id] = by_task.get(pr.task_id, 0.0) + occupied
    ranked = sorted(held, key=lambda k: (-held[k], k))[:top]
    pressures = [
        LinkPressure(
            link=link,
            busy_fraction=min(1.0, held[link] / span),
            holders=tuple(sorted(
                holders[link], key=lambda t: (-holders[link][t], t)
            )),
        )
        for link in ranked
    ]
    blocking: dict[int, float] = {}
    for link in ranked:
        for tid, t in holders[link].items():
            blocking[tid] = blocking.get(tid, 0.0) + t
    competing = tuple(sorted(blocking, key=lambda t: (-blocking[t], t)))
    return pressures, competing


def _explain_rejected(tl: RunTimeline, task: TaskTimeline) -> TaskVerdict:
    rej = task.rejection
    derived = derive_clause(task.task_id, rej.missing)
    consistent = (
        rej.clause == derived
        if rej.reason == "would-miss"
        else rej.clause is None
    )
    worst = max((late for _, late in rej.lateness), default=None)
    slack = task.deadline - rej.time if task.deadline is not None else None
    clause_bit = f", clause {rej.clause}" if rej.clause else ""
    v = TaskVerdict(
        task_id=task.task_id,
        outcome="rejected",
        time=rej.time,
        headline=(
            f"task {task.task_id}: REJECTED at t={rej.time:.4f} "
            f"(reason {rej.reason}{clause_bit})"
        ),
        reject_reason=rej.reason,
        clause_recorded=rej.clause,
        clause_derived=derived,
        clause_consistent=consistent,
        slack_at_decision=slack,
        worst_lateness=worst,
    )
    why = REASON_TEXT.get(rej.reason, rej.reason)
    if rej.clause in CLAUSE_TEXT:
        why = CLAUSE_TEXT[rej.clause]
    v.details.append(f"why: {why}")
    if rej.reason == "would-miss":
        mark = "consistent" if consistent else "INCONSISTENT"
        v.details.append(
            f"clause evidence: recorded {rej.clause}, derived "
            f"{derived} from {len(rej.missing)} missing flow(s) "
            f"across tasks "
            f"{sorted({t for _, t in rej.missing})} — {mark} "
            f"with the auditor's classification"
        )
    if rej.clause == 3 and rej.victim_ratio is not None:
        v.details.append(
            f"ratio comparison: victim {rej.victim_ratio:.3f} vs "
            f"newcomer {rej.new_ratio:.3f} — victim kept"
        )
    if slack is not None:
        v.details.append(
            f"slack at decision: {slack:.4f}s to deadline "
            f"t={task.deadline:.4f}"
        )
    if worst is not None:
        v.details.append(f"worst projected lateness: {worst:.4f}s")
    pressures, competing = _window_pressure(tl, task)
    v.saturated_links = pressures
    v.competing_tasks = competing
    if pressures:
        v.details.append(
            f"busiest committed links over "
            f"[{rej.time:.4f}, {task.deadline:.4f}]:"
        )
        for p in pressures:
            v.details.append(
                f"  link {p.link}: {p.busy_fraction:6.1%} occupied, held "
                f"by task(s) {', '.join(str(t) for t in p.holders)}"
            )
    if competing:
        v.details.append(
            "competing tasks holding blocking occupancy: "
            + ", ".join(str(t) for t in competing)
        )
    return v


def _explain_preempted(tl: RunTimeline, task: TaskTimeline) -> TaskVerdict:
    pre = task.preemption
    v = TaskVerdict(
        task_id=task.task_id,
        outcome="preempted",
        time=pre.time,
        headline=(
            f"task {task.task_id}: PREEMPTED at t={pre.time:.4f} "
            f"by task {pre.by_task_id} "
            f"({len(pre.killed_flows)} flow(s) killed)"
        ),
    )
    v.details.append(
        "why: discard-victim — the newcomer's admission only succeeded "
        "after discarding this task's flows (paper Alg. 1)"
    )
    preemptor = tl.tasks.get(pre.by_task_id)
    rollbacks = preemptor.rollbacks if preemptor is not None else ()
    for rb in rollbacks:
        if rb.victim_task_id == task.task_id:
            v.details.append(
                f"ratio comparison at trial {rb.attempt}: victim "
                f"{rb.victim_ratio:.3f} < newcomer {rb.new_ratio:.3f} "
                f"— victim discarded"
            )
            break
    v.competing_tasks = (pre.by_task_id,)
    return v


def _explain_dropped(tl: RunTimeline, task: TaskTimeline) -> TaskVerdict:
    drop = task.drop
    v = TaskVerdict(
        task_id=task.task_id,
        outcome="dropped",
        time=drop.time,
        headline=(
            f"task {task.task_id}: DROPPED at t={drop.time:.4f} "
            f"(cause {drop.cause})"
        ),
    )
    if drop.cause == "fault":
        down = sorted(
            link for link, entry in tl.links.items()
            if entry.down_at(drop.time)
        )
        v.details.append(
            "why: a link outage made the remaining flows unmeetable; "
            f"links down at the drop: {down or '(recovered by drop time)'}"
        )
    else:
        v.details.append(
            "why: backstop — a stranded flow crossed its deadline and "
            "the task was killed rather than allowed to dribble"
        )
    return v


def explain_task(tl: RunTimeline, task_id: int) -> TaskVerdict:
    """The verdict for one task; raises ``KeyError`` on an unknown id."""
    task = tl.tasks[task_id]
    outcome = task.outcome
    if outcome == "rejected":
        return _explain_rejected(tl, task)
    if outcome == "preempted":
        return _explain_preempted(tl, task)
    if outcome == "dropped":
        return _explain_dropped(tl, task)
    if outcome == "completed":
        return TaskVerdict(
            task_id=task_id, outcome=outcome, time=task.completed_at,
            headline=(
                f"task {task_id}: COMPLETED at t={task.completed_at:.4f} "
                f"({task.flows_completed} flow(s), deadline "
                f"t={task.deadline:.4f})"
            ),
        )
    if outcome == "expired":
        v = TaskVerdict(
            task_id=task_id, outcome=outcome, time=task.deadline,
            headline=(
                f"task {task_id}: EXPIRED — {task.flows_expired} flow(s) "
                f"crossed deadline t={task.deadline:.4f}"
            ),
        )
        had_faults = any(entry.outages for entry in tl.links.values())
        v.details.append(
            "why: an outage disrupted the committed schedule"
            if had_faults else
            "why: the run's schedule let an accepted flow miss — this "
            "should have been flagged by the auditor"
        )
        return v
    return TaskVerdict(
        task_id=task_id, outcome=outcome, time=None,
        headline=(
            f"task {task_id}: INCOMPLETE — the trace ends (t="
            f"{tl.end_time:.4f}) before the task settled"
        ),
    )


def explain_run(tl: RunTimeline) -> list[TaskVerdict]:
    """Verdicts for every task that did **not** complete, by task id."""
    return [
        explain_task(tl, tid)
        for tid in sorted(tl.tasks)
        if tl.tasks[tid].outcome != "completed"
    ]
