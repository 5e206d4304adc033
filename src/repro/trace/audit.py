"""Replay a finished decision trace against the paper's invariants.

PDQ (Hong et al., SIGCOMM 2012) and DCoflow (Luu et al., 2022) validate
their schedulers by auditing the *schedule* they produced, not just its
end-of-run statistics.  This module does the same for TAPS, mechanically,
over a recorded event stream (:mod:`repro.trace.events`):

``exclusive-link``
    At most one flow's slices occupy a link at any instant of every
    committed plan-table snapshot (``task-accept`` /
    ``fault-reallocation``).
``slice-exclusive``
    The same over the physical ``slice-start`` / ``slice-end`` timeline
    the engine emitted: a flow starts on a link only once the link's
    previous holder has ended.
``deadline-at-commit``
    Every plan in a committed table completes by its flow's deadline —
    the acceptance the reject rule is supposed to have guaranteed.
``plan-consistency``
    A plan's recorded completion is the end of its last slice.
``conservation``
    Each plan a ``task-accept`` commits for a flow of that admission's
    last ``trial-begin`` books exactly the flow's transmission time: its
    slices add up to the trial's ``remaining`` over the link capacity,
    rounded up onto the plan grid.  Three cases are skipped: fault
    reallocations, which emit no ``trial-begin``; frozen plans in
    incremental mode, whose flows are not in the trial; and traces whose
    meta records no ``capacity``.
``priority-order``
    Each trial's ``Ftmp`` is sorted by the controller's declared priority
    (EDF-then-SJF for the paper's configuration).
``reject-rule``
    Every ``would-miss`` rejection names the clause that fired and the
    recorded evidence supports it (:func:`derive_clause`): clause 1 needs
    several missing tasks, clause 2 the newcomer's own flows, clause 3
    exactly one victim whose completion ratio did not lose to the
    newcomer's; a ``trial-rollback`` (discard-victim) needs the opposite
    comparison, and is impossible under the ``never`` policy.
``deadline-met``
    Absent faults, no flow of an accepted, never-preempted task misses
    its deadline (the paper's "accepted tasks meet their deadlines by
    construction").  Skipped when the trace contains any link-state
    change: outages void the guarantee by design.
``well-formed``
    Sequence numbers strictly increase and timestamps never go backwards.

Plan times are exact grid values (:data:`repro.util.intervals.GRID`) and
survive the JSONL round-trip bit for bit, so every plan-table check above
compares exactly; only the engine's own timestamps (the ``well-formed``
time order) get a tolerance.

The auditor is pure trace-in, report-out: it never imports the scheduler
or the engine, so it can audit a JSONL file from any run — including a
deliberately corrupted one (that is how it is tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.trace.events import (
    FaultReallocation,
    LinkStateChange,
    PlanRecord,
    TaskAccept,
    TraceEvent,
)
from repro.trace.recorder import LoadedTrace, TraceRecorder
from repro.util.intervals import up

#: slack on the engine's event times (matches :data:`repro.sim.state.EPS`)
TIME_TOL = 1e-9

#: slack on completion-ratio comparisons (clause 3 uses a 1e-12 strict
#: margin; anything beyond 1e-9 is a real inversion, not float dust)
RATIO_TOL = 1e-9

#: ``Ftmp`` sort keys by declared priority, over the recorded
#: ``(flow_id, deadline, remaining, release)`` tuples
_PRIORITY_KEYS = {
    "edf_sjf": lambda f: (f[1], f[2], f[0]),
    "edf": lambda f: (f[1], f[0]),
    "sjf": lambda f: (f[2], f[0]),
    "fifo": lambda f: (f[3], f[0]),
}


def derive_clause(task_id: int, missing: Iterable[tuple[int, int]]) -> int | None:
    """The Alg. 1 reject clause that the missing-flow evidence supports.

    ``missing`` holds the ``(flow id, task id)`` pairs that would miss
    their deadlines.  The newcomer ``task_id`` among the missing tasks →
    clause 2; exactly one *other* task missing → clause 3; several other
    tasks missing → clause 1.  ``None`` when there is no missing-flow
    evidence (rejections outside the three-clause rule).
    """
    tasks = {tid for _, tid in missing}
    if not tasks:
        return None
    if task_id in tasks:
        return 2
    return 3 if len(tasks) == 1 else 1


@dataclass(slots=True)
class Violation:
    """One invariant breach, anchored to the first event that exposed it."""

    invariant: str
    seq: int
    time: float
    message: str
    context: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        ctx = ""
        if self.context:
            ctx = "  " + ", ".join(f"{k}={v!r}" for k, v in self.context.items())
        return (
            f"[{self.invariant}] event #{self.seq} @t={self.time:g}: "
            f"{self.message}{ctx}"
        )


@dataclass(slots=True)
class AuditReport:
    """Outcome of one trace audit."""

    events_audited: int
    violations: list[Violation] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    had_faults: bool = False
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> Violation | None:
        return self.violations[0] if self.violations else None

    def summary(self) -> str:
        """Human-readable digest: verdict first, then the first violation
        with full context, then per-kind event counts."""
        lines = []
        if self.truncated:
            lines.append(
                "WARNING: trace ring overflowed — the stream is incomplete "
                "and this audit is unsound"
            )
        if self.ok:
            lines.append(f"audit OK: 0 violations over {self.events_audited} events")
        else:
            lines.append(
                f"audit FAILED: {len(self.violations)} violation(s) over "
                f"{self.events_audited} events; first:"
            )
            lines.append(f"  {self.first_violation}")
            for v in self.violations[1:6]:
                lines.append(f"  {v}")
            if len(self.violations) > 7:
                lines.append(f"  ... and {len(self.violations) - 6} more")
        for kind in sorted(self.counts):
            lines.append(f"  {self.counts[kind]:>7d}  {kind}")
        return "\n".join(lines)


class _Auditor:
    def __init__(self, meta: dict[str, Any]):
        self.meta = meta
        self.priority = meta.get("priority", "edf_sjf")
        self.policy = meta.get("preemption", "progress")
        self.exclusive = bool(meta.get("exclusive_links", True))
        self.capacity = meta.get("capacity")
        # conservation: (task id, flow id -> remaining) of the last trial
        self.trial: tuple[int, dict[int, float]] | None = None
        self.violations: list[Violation] = []
        self.counts: dict[str, int] = {}
        self.had_faults = False
        # deadline-met bookkeeping
        self.accepted: set[int] = set()
        self.exempt: set[int] = set()  # preempted or dropped tasks
        # physical slice timeline
        self.link_holder: dict[int, int] = {}  # link -> flow transmitting
        self.flow_links: dict[int, tuple[int, ...]] = {}
        self.flow_task: dict[int, int] = {}
        # well-formedness
        self.last_seq = -1
        self.last_time = float("-inf")

    def flag(self, invariant: str, ev: TraceEvent, message: str, **context) -> None:
        self.violations.append(
            Violation(invariant, ev.seq, ev.time, message, context)
        )

    # -- per-event dispatch --------------------------------------------------

    def feed(self, ev: TraceEvent) -> None:
        self.counts[ev.kind] = self.counts.get(ev.kind, 0) + 1
        if ev.seq <= self.last_seq:
            self.flag(
                "well-formed", ev,
                f"sequence number not increasing (previous {self.last_seq})",
            )
        self.last_seq = max(self.last_seq, ev.seq)
        if ev.time < self.last_time - TIME_TOL:
            self.flag(
                "well-formed", ev,
                f"time went backwards (previous {self.last_time:g})",
            )
        self.last_time = max(self.last_time, ev.time)

        kind = ev.kind
        if kind in ("task-accept", "fault-reallocation"):
            self._check_plan_table(ev)
        if kind == "task-accept":
            self._check_conservation(ev)
            self.accepted.add(ev.task_id)
            for victim in ev.victims:
                self.exempt.add(victim)
        elif kind == "fault-reallocation":
            self.exempt.update(ev.dropped_tasks)
        elif kind == "preemption":
            self.exempt.add(ev.victim_task_id)
        elif kind == "task-drop":
            self.exempt.add(ev.task_id)
        elif kind == "link-state-change":
            self.had_faults = True
        elif kind == "trial-begin":
            self.trial = (ev.task_id, {f[0]: f[2] for f in ev.flows})
            self._check_priority_order(ev)
        elif kind == "task-reject":
            self._check_reject(ev)
        elif kind == "trial-rollback":
            self._check_rollback(ev)

    # -- invariants ----------------------------------------------------------

    def _check_plan_table(self, ev: TaskAccept | FaultReallocation) -> None:
        by_link: dict[int, list[PlanRecord]] = {}
        for pr in ev.plans:
            if pr.completion > pr.deadline:
                self.flag(
                    "deadline-at-commit", ev,
                    f"committed plan for flow {pr.flow_id} (task {pr.task_id}) "
                    f"completes at {pr.completion:g}, past its deadline "
                    f"{pr.deadline:g}",
                    flow_id=pr.flow_id, task_id=pr.task_id,
                    completion=pr.completion, deadline=pr.deadline,
                )
            if pr.slices and pr.completion != pr.slices[-1]:
                self.flag(
                    "plan-consistency", ev,
                    f"flow {pr.flow_id}: recorded completion {pr.completion:g} "
                    f"is not the end of its last slice {pr.slices[-1]:g}",
                    flow_id=pr.flow_id,
                )
            for link in pr.path:
                by_link.setdefault(link, []).append(pr)
        if not self.exclusive:
            return
        for link, plans in by_link.items():
            if len(plans) < 2:
                continue
            spans = sorted(
                (pr.slices[i], pr.slices[i + 1], pr.flow_id)
                for pr in plans
                for i in range(0, len(pr.slices), 2)
            )
            for (s0, e0, f0), (s1, e1, f1) in zip(spans, spans[1:]):
                if f0 != f1 and min(e0, e1) > s1:
                    self.flag(
                        "exclusive-link", ev,
                        f"link {link}: flows {f0} and {f1} overlap over "
                        f"[{s1:g}, {min(e0, e1):g})",
                        link=link, flows=(f0, f1),
                        overlap=(s1, min(e0, e1)),
                    )
                    return  # one collision per table is enough context

    def _check_conservation(self, ev: TaskAccept) -> None:
        if self.capacity is None or self.trial is None:
            return
        task_id, remaining = self.trial
        if task_id != ev.task_id:
            return
        for pr in ev.plans:
            rem = remaining.get(pr.flow_id)
            if rem is None:
                continue  # a frozen plan (incremental admission)
            booked = sum(
                pr.slices[i + 1] - pr.slices[i]
                for i in range(0, len(pr.slices), 2)
            )
            need = up(rem / self.capacity)
            if booked != need:
                self.flag(
                    "conservation", ev,
                    f"flow {pr.flow_id} (task {pr.task_id}): slices book "
                    f"{booked!r} s, but {rem:g} remaining bytes need "
                    f"{need!r} s",
                    flow_id=pr.flow_id, booked=booked, need=need,
                )

    def _check_priority_order(self, ev) -> None:
        key = _PRIORITY_KEYS.get(self.priority)
        if key is None:
            return  # unknown ablation order: nothing to check against
        keys = [key(f) for f in ev.flows]
        for i in range(1, len(keys)):
            if keys[i] < keys[i - 1]:
                self.flag(
                    "priority-order", ev,
                    f"Ftmp not sorted by {self.priority}: position {i} "
                    f"(flow {ev.flows[i][0]}) sorts before position {i - 1} "
                    f"(flow {ev.flows[i - 1][0]})",
                    task_id=ev.task_id, attempt=ev.attempt, position=i,
                )
                return

    def _check_reject(self, ev) -> None:
        if ev.reason != "would-miss":
            return  # outside the three-clause rule (outage / latency / tables)
        if ev.clause not in (1, 2, 3):
            self.flag(
                "reject-rule", ev,
                f"would-miss rejection of task {ev.task_id} records no "
                f"reject-rule clause (got {ev.clause!r})",
                task_id=ev.task_id,
            )
            return
        if not ev.missing:
            self.flag(
                "reject-rule", ev,
                f"would-miss rejection of task {ev.task_id} with an empty "
                f"missing-flow set",
                task_id=ev.task_id,
            )
            return
        for fid, late in ev.lateness:
            if late <= 0:
                self.flag(
                    "reject-rule", ev,
                    f"flow {fid} recorded as missing but its lateness "
                    f"{late:g} is not positive",
                    task_id=ev.task_id, flow_id=fid,
                )
        derived = derive_clause(ev.task_id, ev.missing)
        if ev.clause != derived:
            missing_tasks = sorted({tid for _, tid in ev.missing})
            self.flag(
                "reject-rule", ev,
                f"clause {ev.clause} recorded but the missing flows span "
                f"tasks {missing_tasks} (newcomer {ev.task_id}), which is "
                f"clause {derived}",
                task_id=ev.task_id, missing_tasks=missing_tasks,
            )
        elif ev.clause == 3:
            if self.policy == "never":
                return  # clause 3 always rejects; nothing to compare
            if ev.victim_ratio is None or ev.new_ratio is None:
                self.flag(
                    "reject-rule", ev,
                    "clause 3 rejection without the compared completion ratios",
                    task_id=ev.task_id,
                )
            elif ev.victim_ratio < ev.new_ratio - RATIO_TOL:
                self.flag(
                    "reject-rule", ev,
                    f"clause 3 rejected the newcomer although the victim's "
                    f"ratio {ev.victim_ratio:g} is strictly below the "
                    f"newcomer's {ev.new_ratio:g} (should have discarded)",
                    task_id=ev.task_id,
                    victim_ratio=ev.victim_ratio, new_ratio=ev.new_ratio,
                )

    def _check_rollback(self, ev) -> None:
        if self.policy == "never":
            self.flag(
                "reject-rule", ev,
                f"discard-victim of task {ev.victim_task_id} under the "
                f"'never' preemption policy",
                victim=ev.victim_task_id,
            )
            return
        if ev.victim_ratio >= ev.new_ratio:
            self.flag(
                "reject-rule", ev,
                f"discarded task {ev.victim_task_id} although its ratio "
                f"{ev.victim_ratio:g} is not below the newcomer's "
                f"{ev.new_ratio:g}",
                victim=ev.victim_task_id,
                victim_ratio=ev.victim_ratio, new_ratio=ev.new_ratio,
            )

    # -- physical slice timeline ---------------------------------------------

    def feed_slice_group(self, group: list[TraceEvent]) -> None:
        """Apply one same-instant batch of slice events, ends first (slices
        are half-open, so an end and a start at the same instant on the
        same link are legal in that order)."""
        if not self.exclusive:
            return
        for ev in group:
            if ev.kind != "slice-end":
                continue
            links = self.flow_links.pop(ev.flow_id, None)
            if links is None:
                self.flag(
                    "slice-exclusive", ev,
                    f"slice-end for flow {ev.flow_id}, which was not "
                    f"transmitting",
                    flow_id=ev.flow_id,
                )
                continue
            for link in links:
                if self.link_holder.get(link) == ev.flow_id:
                    del self.link_holder[link]
        for ev in group:
            if ev.kind != "slice-start":
                continue
            self.flow_task[ev.flow_id] = ev.task_id
            if ev.flow_id in self.flow_links:
                self.flag(
                    "slice-exclusive", ev,
                    f"slice-start for flow {ev.flow_id}, which is already "
                    f"transmitting",
                    flow_id=ev.flow_id,
                )
                continue
            for link in ev.path:
                holder = self.link_holder.get(link)
                if holder is not None and holder != ev.flow_id:
                    self.flag(
                        "slice-exclusive", ev,
                        f"link {link}: flow {ev.flow_id} starts transmitting "
                        f"while flow {holder} still holds the link",
                        link=link, flow_id=ev.flow_id, holder=holder,
                    )
            for link in ev.path:
                self.link_holder[link] = ev.flow_id
            self.flow_links[ev.flow_id] = ev.path

    # -- deadline-met (second pass: needs the full fault picture) ------------

    def check_deadlines(self, events: list[TraceEvent]) -> None:
        if self.had_faults:
            return  # outages void the guarantee by design
        for ev in events:
            if ev.kind == "flow-completed":
                if (
                    not ev.met_deadline
                    and ev.task_id in self.accepted
                    and ev.task_id not in self.exempt
                ):
                    self.flag(
                        "deadline-met", ev,
                        f"flow {ev.flow_id} of accepted task {ev.task_id} "
                        f"completed past its deadline with no fault in the "
                        f"trace",
                        flow_id=ev.flow_id, task_id=ev.task_id,
                    )
            elif ev.kind == "deadline-expired":
                if ev.task_id in self.accepted and ev.task_id not in self.exempt:
                    self.flag(
                        "deadline-met", ev,
                        f"deadline expired on flow {ev.flow_id} of accepted "
                        f"task {ev.task_id} with no fault in the trace",
                        flow_id=ev.flow_id, task_id=ev.task_id,
                    )


def audit_events(
    events: Iterable[TraceEvent],
    meta: dict[str, Any] | None = None,
    truncated: bool = False,
) -> AuditReport:
    """Audit an event stream; returns the full report (see module doc)."""
    events = list(events)
    auditor = _Auditor(meta or {})

    # single pass for per-event invariants; slice events are batched by
    # identical timestamp so simultaneous end/start pairs resolve in order
    group: list[TraceEvent] = []
    for ev in events:
        if ev.kind in ("slice-start", "slice-end"):
            if group and ev.time != group[0].time:
                auditor.feed_slice_group(group)
                group = []
            group.append(ev)
        elif group and ev.time != group[0].time:
            auditor.feed_slice_group(group)
            group = []
        auditor.feed(ev)
    if group:
        auditor.feed_slice_group(group)

    auditor.check_deadlines(events)
    auditor.violations.sort(key=lambda v: (v.seq, v.invariant))
    return AuditReport(
        events_audited=len(events),
        violations=auditor.violations,
        counts=auditor.counts,
        had_faults=auditor.had_faults,
        truncated=truncated,
    )


def audit_trace(trace: TraceRecorder | LoadedTrace) -> AuditReport:
    """Audit a recorder's buffer or a loaded JSONL trace."""
    return audit_events(trace.events, trace.meta, trace.truncated)
