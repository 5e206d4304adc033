"""The decision-trace event vocabulary (schema v1).

Every layer that makes or enacts a scheduling decision emits typed events
into a :class:`~repro.trace.recorder.TraceRecorder`:

* the **controller** (:class:`~repro.core.controller.TapsScheduler`) emits
  the admission pipeline — :class:`TrialBegin` / :class:`TrialRollback`
  per Alg. 1 retry, :class:`TaskAccept` with the full committed plan
  table, :class:`TaskReject` with the reject-rule clause number,
  :class:`Preemption` per discarded victim, :class:`FaultReallocation`
  and :class:`TaskDrop` for the fault path;
* the **engine** (:class:`~repro.sim.engine.Engine`) emits the physical
  timeline — :class:`TaskArrival`, :class:`LinkStateChange`,
  :class:`SliceStart` / :class:`SliceEnd` (actual transmission
  transitions, after down-link zeroing), :class:`FlowCompleted`,
  :class:`DeadlineExpired`, :class:`RunEnd`.

Events are plain slotted dataclasses with JSON round-trip
(:meth:`TraceEvent.to_json` / :func:`event_from_json`), so a trace can be
exported as JSONL, diffed byte-for-byte between runs (the tests that
check the controller against the reference oracle rely on this — nothing
implementation-dependent may appear in an event), and replayed offline by
the auditor
(:mod:`repro.trace.audit`).

Design rule: events record *decisions and physical facts*, never
implementation details (ledger mode, cache state, wall-clock timings) —
two controller modes that decide identically must emit identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar

SCHEMA_VERSION = 1
"""Version of the event vocabulary; bumped on any incompatible change to
event kinds or fields (recorded in the JSONL header and in DESIGN.md)."""


@dataclass(slots=True)
class PlanRecord:
    """One flow's committed plan, as recorded in accept/realloc snapshots.

    ``slices`` is the flat boundary list ``[s0, e0, s1, e1, ...]`` of the
    plan's :class:`~repro.util.intervals.IntervalSet` — float-exact, so
    two runs that planned identically serialize identically.
    """

    flow_id: int
    task_id: int
    path: tuple[int, ...]
    slices: tuple[float, ...]
    completion: float
    deadline: float

    def to_json(self) -> dict[str, Any]:
        return {
            "flow": self.flow_id,
            "task": self.task_id,
            "path": list(self.path),
            "slices": list(self.slices),
            "completion": self.completion,
            "deadline": self.deadline,
        }

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> "PlanRecord":
        return cls(
            flow_id=d["flow"],
            task_id=d["task"],
            path=tuple(d["path"]),
            slices=tuple(d["slices"]),
            completion=d["completion"],
            deadline=d["deadline"],
        )


@dataclass(slots=True)
class TraceEvent:
    """Base event: a timestamped, sequence-numbered record.

    ``seq`` is assigned by the recorder at emission (monotonically
    increasing within a trace); ``time`` is simulation time.
    """

    kind: ClassVar[str] = "event"

    time: float
    seq: int = field(default=-1, kw_only=True)

    def to_json(self) -> dict[str, Any]:
        """JSON-ready dict; field order is deterministic (kind, seq, t,
        then declaration order), so serialized streams diff cleanly."""
        out: dict[str, Any] = {"kind": self.kind, "seq": self.seq, "t": self.time}
        for f in fields(self):
            if f.name in ("time", "seq"):
                continue
            out[f.name] = _encode(getattr(self, f.name))
        return out


def _encode(value: Any) -> Any:
    if isinstance(value, PlanRecord):
        return value.to_json()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


# -- controller events -------------------------------------------------------


@dataclass(slots=True)
class TaskArrival(TraceEvent):
    """A task reached the controller (before any admission latency)."""

    kind: ClassVar[str] = "task-arrival"

    task_id: int
    deadline: float
    num_flows: int
    total_bytes: float


@dataclass(slots=True)
class TrialBegin(TraceEvent):
    """One Alg. 1 trial allocation starts over the recorded ``Ftmp``.

    ``flows`` is the trial's priority-ordered flow list as
    ``(flow_id, deadline, remaining, release)`` — enough for the auditor
    to re-check the EDF-then-SJF sort without replaying the run.
    ``attempt`` counts discard-victim retries within one admission (1 =
    first trial).
    """

    kind: ClassVar[str] = "trial-begin"

    task_id: int
    attempt: int
    flows: tuple[tuple[int, float, float, float], ...]


@dataclass(slots=True)
class TrialRollback(TraceEvent):
    """A trial chose *discard-victim*: the trial ledger is rolled back and
    the admission retries without ``victim_task_id``'s flows.

    ``victim_ratio`` / ``new_ratio`` are the completion ratios the
    clause-3 comparison used (policy recorded in the trace meta).
    """

    kind: ClassVar[str] = "trial-rollback"

    task_id: int
    attempt: int
    victim_task_id: int
    victim_ratio: float
    new_ratio: float


@dataclass(slots=True)
class TaskAccept(TraceEvent):
    """An admission committed.  ``plans`` snapshots the controller's
    **entire** committed plan table after the commit (not just the new
    task's flows) — the auditor's exclusive-link and deadline checks run
    against this table."""

    kind: ClassVar[str] = "task-accept"

    task_id: int
    victims: tuple[int, ...]
    plans: tuple[PlanRecord, ...]


@dataclass(slots=True)
class TaskReject(TraceEvent):
    """An admission refused the new task — the record of why.

    ``reason`` is ``deadline-expired`` (dead on arrival, control latency
    included), ``unreachable`` (some new flow has no usable path — an
    outage), ``would-miss`` (the trial allocation missed deadlines) or
    ``table-limit`` (a switch's install budget would be exceeded).
    ``clause`` is the reject-rule clause that fired for ``would-miss``
    (1 = several tasks missing, 2 = the new task's own flows missing,
    3 = single-victim ratio comparison lost), ``None`` for rejections
    outside the rule.  ``missing`` pairs each missing flow with its task;
    ``lateness`` pairs it with how far past its deadline the trial
    finished it (``inf`` when the trial could not plan it at all);
    ``victim_ratio`` / ``new_ratio`` are set for clause 3.  For clause 2
    the evidence covers ``Ftmp`` only up to the new task's last flow: the
    trial stops there once one of the new task's flows misses, so later
    in-flight flows the full trial would also have finished late are not
    listed.  The event time is the decision time.  ``repro-taps explain``
    renders it per task.
    """

    kind: ClassVar[str] = "task-reject"

    task_id: int
    reason: str
    clause: int | None
    missing: tuple[tuple[int, int], ...]
    lateness: tuple[tuple[int, float], ...]
    victim_ratio: float | None = None
    new_ratio: float | None = None


@dataclass(slots=True)
class Preemption(TraceEvent):
    """A victim task's flows were killed at commit time (the deferred
    discard-victim enactment)."""

    kind: ClassVar[str] = "preemption"

    victim_task_id: int
    by_task_id: int
    killed_flows: tuple[int, ...]


@dataclass(slots=True)
class FaultReallocation(TraceEvent):
    """The controller re-planned every in-flight flow around a new outage
    picture.  ``dropped_tasks`` are tasks the outage made unmeetable
    (killed rather than allowed to dribble to a miss); ``plans`` is the
    full new plan table."""

    kind: ClassVar[str] = "fault-reallocation"

    down_links: tuple[int, ...]
    dropped_tasks: tuple[int, ...]
    plans: tuple[PlanRecord, ...]


@dataclass(slots=True)
class TaskDrop(TraceEvent):
    """A task was stopped mid-flight outside a commit: ``cause`` is
    ``"fault"`` (unmeetable under the outage) or ``"backstop"`` (a
    stranded flow crossed its deadline)."""

    kind: ClassVar[str] = "task-drop"

    task_id: int
    cause: str


# -- engine events -----------------------------------------------------------


@dataclass(slots=True)
class LinkStateChange(TraceEvent):
    """The set of down links changed; ``down_links`` is the full new set."""

    kind: ClassVar[str] = "link-state-change"

    down_links: tuple[int, ...]


@dataclass(slots=True)
class SliceStart(TraceEvent):
    """A flow physically started transmitting on ``path`` (rate went
    positive after down-link zeroing)."""

    kind: ClassVar[str] = "slice-start"

    flow_id: int
    task_id: int
    path: tuple[int, ...]


@dataclass(slots=True)
class SliceEnd(TraceEvent):
    """A flow physically stopped transmitting (slice boundary, completion,
    kill, or outage)."""

    kind: ClassVar[str] = "slice-end"

    flow_id: int
    task_id: int


@dataclass(slots=True)
class FlowCompleted(TraceEvent):
    """A flow delivered its last byte."""

    kind: ClassVar[str] = "flow-completed"

    flow_id: int
    task_id: int
    met_deadline: bool


@dataclass(slots=True)
class DeadlineExpired(TraceEvent):
    """A still-active flow crossed its deadline (the engine notified the
    scheduler)."""

    kind: ClassVar[str] = "deadline-expired"

    flow_id: int
    task_id: int


@dataclass(slots=True)
class RunEnd(TraceEvent):
    """The simulation reached quiescence (or its horizon)."""

    kind: ClassVar[str] = "run-end"


EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        TaskArrival,
        TrialBegin,
        TrialRollback,
        TaskAccept,
        TaskReject,
        Preemption,
        FaultReallocation,
        TaskDrop,
        LinkStateChange,
        SliceStart,
        SliceEnd,
        FlowCompleted,
        DeadlineExpired,
        RunEnd,
    )
}

#: per-class decoders for fields that JSON flattens to lists
_TUPLE_OF_TUPLES = ("flows", "missing", "lateness")
_TUPLE_OF_PLANS = ("plans",)
_PLAIN_TUPLES = ("victims", "killed_flows", "down_links", "path")


def event_from_json(d: dict[str, Any]) -> TraceEvent:
    """Rebuild a typed event from its :meth:`TraceEvent.to_json` dict."""
    kind = d["kind"]
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    kwargs: dict[str, Any] = {}
    for f in fields(cls):
        if f.name == "time":
            kwargs["time"] = d["t"]
            continue
        if f.name == "seq":
            continue
        value = d[f.name]
        if f.name in _TUPLE_OF_PLANS:
            value = tuple(PlanRecord.from_json(p) for p in value)
        elif f.name in _TUPLE_OF_TUPLES:
            value = tuple(tuple(item) for item in value)
        elif f.name in _PLAIN_TUPLES:
            value = tuple(value)
        kwargs[f.name] = value
    ev = cls(**kwargs)
    ev.seq = d.get("seq", -1)
    return ev
